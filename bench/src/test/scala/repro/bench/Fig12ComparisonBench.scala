package repro.bench

import repro.SparkSpec
import repro.baseline.{ArtemisSim, SingleDerivation}
import repro.data.{Datasets, Queries}
import repro.summarize.Summarizer
import scala.util.{Failure, Success}

/** Fig 12 reproduction: PUG-Summ vs the two baselines.
  *
  *  - 12a: vs the Artemis-style all-derivations approach on the
  *    crime-witness dataset (1.4K → 22K rows), sample ≈ 10% of rows,
  *    top-5 — plus the informativeness contrast the paper reports (Artemis'
  *    top-1 is the all-placeholder pattern; PUG's top pattern is specific).
  *  - 12b: vs the single-derivation approach on r1 (license), S1K, top-3.
  */
class Fig12ComparisonBench extends SparkSpec {

  test("Fig 12a: PUG-Summ vs Artemis (all-derivations) on crime-witness data") {
    val rows = for (n <- Seq(1400L, 5000L, 11000L, 22000L)) yield {
      val cat = Bench.pinned(Datasets.crimeWitness(spark, n))
      val nS  = (n / 10).toInt
      val (pug, pugMs) = Summarizer.timed(Summarizer.summarize(spark, Queries.crimeDesc,
        cat, Queries.whynotCrimeDesc, Summarizer.Config(nS = nS, k = 5)))
      val timeout = 300
      val artemis = Bench.withTimeout(spark, timeout) {
        Summarizer.timed(ArtemisSim.explain(spark, Queries.crimeDesc, cat,
          Queries.whynotCrimeDesc))
      }
      val (artMs, artTop) = artemis match {
        case Some(Success((ex, t))) =>
          (t.toString, ex.headOption.map(_._1.args.count(_.isDefined).toString).getOrElse("-"))
        case Some(Failure(e)) =>
          Console.err.println(s"[bench] Artemis-sim at $n rows failed: $e")
          ("error", "-")
        case None => (s">${timeout}000", "-")
      }
      val pugTopConsts = pug.summary.patterns.headOption
        .map(_.args.count(_.isDefined).toString).getOrElse("-")
      Seq(n.toString, s"S$nS", pugMs.toString, artMs,
        pugTopConsts, artTop, Bench.f3(pug.summary.cpLow))
    }
    Bench.table("Fig 12a — PUG-Summ vs Artemis-sim (top-5, sample=10%)",
      Seq("rows", "sample", "pug_ms", "artemis_ms",
        "pug_top1_consts", "artemis_top1_consts", "pug_cp"), rows)
    assert(rows.size == 4)
  }

  test("Fig 12b: PUG-Summ vs single-derivation on r1 why-not") {
    val rows = for (n <- Seq(1000L, 5000L, 20000L, 50000L)) yield {
      val cat = Bench.pinned(Datasets.license(spark, n))
      val (_, singleMs) = Summarizer.timed(
        SingleDerivation.explain(spark, Queries.r1, cat, Queries.whynotR1))
      val (res, pugMs) = Summarizer.timed(Summarizer.summarize(spark, Queries.r1, cat,
        Queries.whynotR1, Summarizer.Config(nS = 1000, k = 3)))
      Seq(n.toString, singleMs.toString, pugMs.toString,
        f"${pugMs.toDouble / math.max(1, singleMs)}%.1fx", Bench.f3(res.summary.cpLow))
    }
    Bench.table("Fig 12b — single-derivation vs PUG-Summ (r1 why-not, S1K, top-3)",
      Seq("rows", "single_ms", "pug_ms", "ratio", "pug_cp"), rows)
    assert(rows.size == 4)
  }
}
