package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.summarize.Summarizer

/** Fig 9 reproduction: query complexity and structure.
  *
  *  - 9a/9b: synthetic chain and star queries over 100K-tuple relations,
  *    varying the number of joins; top-3 why-not summaries.
  *  - 9c/9d: same queries, varying the number of variables (payload columns).
  *  - 9e: r9 (DBLP co-author paths) varying the path length 2..6,
  *    L = xueni pan.
  *  - 9f: r10 over TPC-H-lite, varying how many existential variables are
  *    bound to constants.
  */
class Fig9ComplexityBench extends SparkSpec {

  private val Rows  = 100000L
  private val Keys  = 1000L

  test("Fig 9a: chain queries, varying number of joins") {
    val rows = for (j <- Seq(2, 4, 6, 8)) yield {
      val cat = Bench.pinned(Datasets.chainRelations(spark, j, Rows, Keys, extraCols = 1))
      val q   = Queries.chainQuery(j, extraCols = 1)
      val pq  = ProvQuestion(PTuple("ChainQ", Vector(Const(0L))), Whynot) // key 0 never exists
      Bench.run(spark, s"chain joins=$j", q, cat, pq, Summarizer.Config(nS = 1000, k = 3))._2
    }
    Bench.table("Fig 9a — chain join count (100K rows/rel, S1000)", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }

  test("Fig 9b: star queries, varying number of joins") {
    val rows = for (j <- Seq(2, 3, 4, 5)) yield {
      val cat = Bench.pinned(Datasets.starRelations(spark, j, Rows, Keys, extraCols = 1))
      val q   = Queries.starQuery(j, extraCols = 1)
      val pq  = ProvQuestion(PTuple("StarQ", Vector(Const(0L))), Whynot)
      Bench.run(spark, s"star dims=$j", q, cat, pq, Summarizer.Config(nS = 1000, k = 3))._2
    }
    Bench.table("Fig 9b — star join count (100K rows fact, S1000)", Bench.RunHeader, rows)
    assert(rows.nonEmpty)
  }

  test("Fig 9c/9d: varying the number of variables (8-way chain, 5-way star)") {
    val chainRows = for (e <- Seq(0, 1, 2)) yield {
      val cat = Bench.pinned(Datasets.chainRelations(spark, 8, Rows, Keys, extraCols = e))
      val q   = Queries.chainQuery(8, extraCols = e)
      val pq  = ProvQuestion(PTuple("ChainQ", Vector(Const(0L))), Whynot)
      val nVars = q.rules.head.variables.size
      Bench.run(spark, s"chain8 vars=$nVars", q, cat, pq, Summarizer.Config(nS = 1000, k = 3))._2
    }
    val starRows = for (e <- Seq(0, 1, 2)) yield {
      val cat = Bench.pinned(Datasets.starRelations(spark, 5, Rows, Keys, extraCols = e))
      val q   = Queries.starQuery(5, extraCols = e)
      val pq  = ProvQuestion(PTuple("StarQ", Vector(Const(0L))), Whynot)
      val nVars = q.rules.head.variables.size
      Bench.run(spark, s"star5 vars=$nVars", q, cat, pq, Summarizer.Config(nS = 1000, k = 3))._2
    }
    Bench.table("Fig 9c/9d — variable count (payload columns)", Bench.RunHeader,
      chainRows ++ starRows)
    assert(chainRows.nonEmpty && starRows.nonEmpty)
  }

  test("Fig 9e: r9 co-author paths, varying path length") {
    val cat = Bench.pinned(Datasets.dblp(spark, 100000L))
    val rows = for (h <- 2 to 6) yield {
      val pq = ProvQuestion(PTuple("Hops", Vector(Const("xueni pan"))), Whynot)
      Bench.run(spark, s"hops=$h", Queries.hops(h), cat, pq,
        Summarizer.Config(nS = 1000, k = 3))._2
    }
    Bench.table("Fig 9e — DBLP 100K path length (S1000)", Bench.RunHeader, rows)
    assert(rows.size == 5)
  }

  test("Fig 9f: r10 over TPC-H-lite, varying bound existential variables") {
    val cat = Bench.pinned(Datasets.tpch(spark, 0.025)) // ~150K lineitem rows
    val rows = for (b <- Seq(0, 3, 6, 9, 12, 14)) yield {
      val q     = Queries.custs(b)
      val nVars = Unify.unify(q.rules.head, Queries.whynotR10.tuple).get.unboundVars.size
      Bench.run(spark, s"r10 bound=$b unbound=$nVars", q, cat, Queries.whynotR10,
        Summarizer.Config(nS = 1000, k = 3))._2
    }
    Bench.table("Fig 9f — TPC-H r10, bound variables (S1000)", Bench.RunHeader, rows)
    assert(rows.size == 6)
  }
}
