package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.sampling.BatchSampler
import repro.summarize.{Coverage, Lca, TopK}

/** Fig 8 reproduction: runtime of the top-k construction step alone,
  * varying k from 1 to 10, with the patterns (candidates + completeness
  * estimates) provided as input — exactly the paper's setup.
  */
class Fig8TopKBench extends SparkSpec {

  /** Produce the pattern pool for a (query, question) pair at sample size nS. */
  private def patterns(program: repro.datalog.Program, cat: repro.datalog.Catalog,
                       pq: repro.datalog.ProvQuestion, nS: Int) = {
    val cfg = BatchSampler.Config(nS = nS, seed = 42L)
    BatchSampler.sampleRules(spark, program, program.rules, cat, pq, cfg).flatMap { s =>
      val c       = Lca.candidates(s.sample, s.varCols, s.goalColNames)
      val counted = Coverage.matchCounts(c, s.sample, s.varCols, s.goalColNames)
      Coverage.collectPatterns(s.rule.name, counted, s.varCols, s.goalColNames,
        s.sampleCount, 1.0)
    }
  }

  test("Fig 8: top-k runtime for k = 1..10 with patterns as input") {
    val cases = Seq(
      ("r1/whynot lic10K S1000", patterns(Queries.r1,
        Datasets.license(spark, 10000), Queries.whynotR1, 1000)),
      ("r4/whynot mov5K S1000", patterns(Queries.r4,
        Datasets.movies(spark, 5000), Queries.whynotR4, 1000)),
      ("r1/why lic10K S1000", patterns(Queries.r1,
        Datasets.license(spark, 10000), Queries.whyR1, 1000)),
    )
    val rows = for {
      (name, pool) <- cases
      k <- 1 to 10
    } yield {
      val (s, t) = Bench.timeMs(TopK.summarize(pool, k))
      Seq(name, pool.size.toString, k.toString, Bench.ms(t),
        Bench.f3(s.cpLow), Bench.f3(s.info), s.optimal.toString, s.pops.toString)
    }
    Bench.table("Fig 8 — top-k construction runtime",
      Seq("case", "#patterns", "k", "topk_ms", "cp", "info", "optimal", "pops"), rows)
    assert(rows.size == 30)
  }
}
