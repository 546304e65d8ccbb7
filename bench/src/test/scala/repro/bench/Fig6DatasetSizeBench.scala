package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.summarize.Summarizer
import scala.util.{Failure, Success}

/** Fig 6 reproduction: per-stage runtime of top-3 summarization varying
  * dataset size and sample size, for why and why-not provenance, on r1
  * (license), r3 and r4 (movies). FULL rows use exhaustive provenance as
  * summarization input (paper: feasible for why, infeasible for why-not —
  * we run why-not FULL only at the smallest size to show the blow-up).
  */
class Fig6DatasetSizeBench extends SparkSpec {

  private val licSizes = Seq(1000L, 10000L, 100000L)
  private val movSizes = Seq(1000L, 10000L)
  private val samples  = Seq(100, 1000)

  test("Fig 6a/6b: r1 why and why-not, varying dataset and sample size") {
    val rows = for {
      n  <- licSizes
      cat = Bench.pinned(Datasets.license(spark, n))
      (pq, tag) <- Seq((Queries.whyR1, "why"), (Queries.whynotR1, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r1/$tag n=$n S$nS", Queries.r1, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    // FULL why at the two smaller sizes; FULL why-not only at 1K (space ~720K).
    val fullRows =
      (for (n <- licSizes.take(2)) yield {
        val cat = Bench.pinned(Datasets.license(spark, n))
        Bench.run(spark, s"r1/why n=$n FULL", Queries.r1, cat, Queries.whyR1,
          Summarizer.Config(k = 3, full = true))._2
      }) :+ {
        // FULL why-not does LCA over ~7·10^5 derivations (≈ 2.6·10^11 pairs):
        // the paper reports it never finishes even at 1K rows. Give it a
        // budget and report the timeout.
        val cat     = Bench.pinned(Datasets.license(spark, 1000L))
        val name    = "r1/whynot n=1000 FULL"
        val timeout = 120
        Bench.withTimeout(spark, timeout) {
          Bench.run(spark, name, Queries.r1, cat, Queries.whynotR1,
            Summarizer.Config(k = 3, full = true, maxPatterns = 200))._2
        } match {
          case Some(Success(row)) => row
          case Some(Failure(e))   => Bench.errorRow(name, e)
          case None               => Bench.timeoutRow(name, timeout)
        }
      }
    Bench.table("Fig 6a/6b — r1 (license), top-3", Bench.RunHeader, rows ++ fullRows)
    assert(rows.nonEmpty)
  }

  test("Fig 6c/6d: r3 why and why-not") {
    val rows = for {
      n  <- movSizes
      cat = Bench.pinned(Datasets.movies(spark, n))
      (pq, tag) <- Seq((Queries.whyR3, "why"), (Queries.whynotR3, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r3/$tag n=$n S$nS", Queries.r3, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    Bench.table("Fig 6c/6d — r3 (movies), top-3", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }

  test("Fig 6e/6f: r4 (union of three rules) why and why-not") {
    val rows = for {
      n  <- movSizes
      cat = Bench.pinned(Datasets.movies(spark, n))
      (pq, tag) <- Seq((Queries.whyR4, "why"), (Queries.whynotR4, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r4/$tag n=$n S$nS", Queries.r4, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    Bench.table("Fig 6e/6f — r4 (movies, union), top-3", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }
}
