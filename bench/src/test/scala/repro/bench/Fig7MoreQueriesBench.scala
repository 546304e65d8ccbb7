package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.summarize.Summarizer

/** Fig 7 reproduction: per-stage runtime for queries r2 (license), r11 and
  * r12 (movies), why and why-not, varying dataset and sample size.
  */
class Fig7MoreQueriesBench extends SparkSpec {

  private val samples = Seq(100, 1000)

  test("Fig 7a/7b: r2 why and why-not") {
    val rows = for {
      n  <- Seq(1000L, 10000L, 100000L)
      cat = Bench.pinned(Datasets.license(spark, n))
      (pq, tag) <- Seq((Queries.whyR2, "why"), (Queries.whynotR2, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r2/$tag n=$n S$nS", Queries.r2, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    Bench.table("Fig 7a/7b — r2 (license), top-3", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }

  test("Fig 7c/7d: r11 why and why-not") {
    val rows = for {
      n  <- Seq(1000L, 10000L)
      cat = Bench.pinned(Datasets.movies(spark, n))
      (pq, tag) <- Seq((Queries.whyR11, "why"), (Queries.whynotR11, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r11/$tag n=$n S$nS", Queries.r11, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    Bench.table("Fig 7c/7d — r11 (movies), top-3", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }

  test("Fig 7e/7f: r12 why and why-not") {
    val rows = for {
      n  <- Seq(1000L, 10000L)
      cat = Bench.pinned(Datasets.movies(spark, n))
      (pq, tag) <- Seq((Queries.whyR12, "why"), (Queries.whynotR12, "whynot"))
      nS <- samples
    } yield Bench.run(spark, s"r12/$tag n=$n S$nS", Queries.r12, cat, pq,
      Summarizer.Config(nS = nS, k = 3))._2
    Bench.table("Fig 7e/7f — r12 (movies), top-3", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }
}
