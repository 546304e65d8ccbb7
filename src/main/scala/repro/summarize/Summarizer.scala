package repro.summarize

import org.apache.spark.sql.SparkSession
import repro.datalog._
import repro.sampling.BatchSampler

/** End-to-end provenance summarization (paper §4): sampling → LCA pattern
  * candidates → completeness estimation → top-k best-first search.
  *
  * For multi-rule (union) queries, sampling/candidates/estimation run per
  * rule; the top-k is selected from the union of all rules' patterns, with
  * each rule's pattern completeness weighted by the rule's estimated share
  * of |Prov(Φ)| so cross-rule cp values are comparable (paper §5.2,
  * "Queries With Multiple Rules").
  */
object Summarizer {

  /** Wall-clock per pipeline stage, in milliseconds — the unit the paper's
    * runtime figures break down by.
    */
  final case class StageTimes(
      sampleMs: Long, lcaMs: Long, matchMs: Long, topkMs: Long) {
    def totalMs: Long = sampleMs + lcaMs + matchMs + topkMs
  }

  final case class Result(
      question: ProvQuestion,
      summary: TopK.Summary,
      allPatterns: Vector[Pattern],
      ruleSamples: Vector[BatchSampler.RuleSample],
      times: StageTimes,
  ) {
    /** Estimated |Prov(Φ)| — the sum of per-rule estimates. */
    def provEstimate: Double = ruleSamples.map(_.provEstimate).sum

    /** The lowest `P_success` achieved by a rule sample (1.0 if none). */
    def achievedPSuccess: Double = ruleSamples.map(_.achievedPSuccess).minOption.getOrElse(1.0)
  }

  final case class Config(
      nS: Int = 1000,
      k: Int = 3,
      pSuccess: Double = 0.999,
      seed: Long = 42L,
      nOSCap: Long = 2_000_000L,
      maxPatterns: Int = 300,
      maxPops: Long = 3000L,
      /** When true, derivations come from [[BatchSampler.Exact]]: every
        * why derivation and a FULL why-not enumeration instead of a sample —
        * the paper's FULL baseline (only feasible for tiny domains).
        */
      full: Boolean = false,
  )

  /** `body`'s result and its wall-clock time in milliseconds. */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** Compute the top-k provenance summary for question `pq` over `program`
    * and `catalog`.
    */
  def summarize(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config = Config(),
  ): Result = {
    val samplerCfg =
      if (cfg.full) BatchSampler.Exact
      else BatchSampler.Config(nS = cfg.nS, pSuccess = cfg.pSuccess, seed = cfg.seed, nOSCap = cfg.nOSCap)

    // Stage 1: per-rule provenance samples, one sampler call per question
    // (its count()s materialize the cached samples: the timing is real work).
    val (samples, sampleMs) = timed {
      BatchSampler.sampleRules(spark, program, program.rules, catalog, pq, samplerCfg)
    }
    if (samples.isEmpty)
      return Result(pq, TopK.Summary(Vector.empty, 0, 0, 0, 0, 0, optimal = true, 0),
        Vector.empty, Vector.empty, StageTimes(sampleMs, 0, 0, 0))

    val totalProv = samples.map(_.provEstimate).sum

    // Stage 2: LCA candidates per rule (cached + counted to materialize).
    val (cands, lcaMs) = timed {
      samples.map { s =>
        val c = Lca.candidates(s.sample, s.varCols, s.goalColNames).cache()
        c.count()
        (s, c)
      }
    }

    // Stage 3: match counts + collect into client-side patterns.
    val (patterns, matchMs) = timed {
      cands.flatMap { case (s, c) =>
        val counted = Coverage.matchCounts(c, s.sample, s.varCols, s.goalColNames)
        Coverage.collectPatterns(s.rule.name, counted, s.varCols, s.goalColNames,
          s.sampleCount, s.provEstimate / totalProv)
      }.toVector
    }

    // Stage 4: top-k best-first search (client-side).
    val (summary, topkMs) = timed {
      TopK.summarize(patterns, cfg.k, cfg.maxPatterns, cfg.maxPops)
    }

    cands.foreach(_._2.unpersist())
    Result(pq, summary, patterns, samples.toVector,
      StageTimes(sampleMs, lcaMs, matchMs, topkMs))
  }
}
