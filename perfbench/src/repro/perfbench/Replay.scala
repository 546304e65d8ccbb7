package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.datalog._
import repro.prov.DerivationOps
import repro.sampling.BatchSampler
import repro.summarize.{Coverage, Lca, Pattern, Summarizer, TopK}

/** The traced run: `Summarizer.summarize` replayed from the benchmark's own
  * files, calling the same public functions in the same order, with a span
  * around each call into a layer. Keep it in step with `Summarizer`; the
  * benchmark fails the question if the two disagree on the summary.
  */
object Replay {

  /** What the traced replay saw besides the result. */
  final case class Seen(candidates: Long)

  def summarize(
      spark: SparkSession,
      tracer: Tracer,
      question: String,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Summarizer.Config,
  ): (Summarizer.Result, Seen) = {
    val samplerCfg = BatchSampler.Config(
      nS = if (cfg.full) Int.MaxValue else cfg.nS,
      pSuccess = cfg.pSuccess, seed = cfg.seed, nOSCap = cfg.nOSCap,
      fullEnumFactor = if (cfg.full) Double.MaxValue else 4.0)

    val samples = program.rules.flatMap { r =>
      tracer.span("sampling", question, Map("rule" -> r.name)) {
        pq.qtype match {
          case Whynot => BatchSampler.whynotSample(spark, program, r, catalog, pq.tuple, samplerCfg)
          case Why    => BatchSampler.whySample(spark, program, r, catalog, pq.tuple, samplerCfg)
        }
      }
    }
    if (samples.isEmpty)
      return (Summarizer.Result(pq, TopK.Summary(Vector.empty, 0, 0, 0, 0, 0, optimal = true, 0),
        Vector.empty, Vector.empty, Summarizer.StageTimes(0, 0, 0, 0)), Seen(0))

    val totalProv = samples.map(_.provEstimate).sum

    val cands = samples.map { s =>
      tracer.span("lca", question, Map("rule" -> s.rule.name)) {
        val c = Lca.candidates(s.sample, s.varCols, s.goalColNames).cache()
        (s, c, c.count())
      }
    }

    val patterns: Vector[Pattern] = cands.flatMap { case (s, c, _) =>
      tracer.span("match", question, Map("rule" -> s.rule.name)) {
        val counted = Coverage.matchCounts(c, s.sample, s.varCols, s.goalColNames)
        Coverage.collectPatterns(s.rule.name, counted, s.varCols, s.goalColNames,
          s.sampleCount, s.provEstimate / totalProv)
      }
    }.toVector

    val summary = tracer.span("topk", question) {
      TopK.summarize(patterns, cfg.k, cfg.maxPatterns, cfg.maxPops)
    }

    cands.foreach(_._2.unpersist())
    (Summarizer.Result(pq, summary, patterns, samples.toVector, Summarizer.StageTimes(0, 0, 0, 0)),
      Seen(cands.map(_._3).sum))
  }

  /** Probe spans, run outside the replay on a cleared cache: one
    * `restrictedAnswers(...).count()` per why-not question (the sampler
    * builds σ_t(Q) twice per sampled rule), and one
    * `varDomain(...).count()` per domain the sampler counts.
    */
  def probe(tracer: Tracer, question: String, program: Program, catalog: Catalog, pq: ProvQuestion): Unit =
    if (pq.qtype == Whynot) {
      tracer.span("probe.answers", question) {
        DatalogEval.restrictedAnswers(program, catalog, pq.tuple).count()
      }
      for {
        r <- program.rules
        u <- Unify.unify(r, pq.tuple).toSeq
        if DerivationOps.groundComparisonsHold(u.rule)
        v <- u.unboundVars
      } tracer.span("probe.domain", question, Map("rule" -> r.name, "var" -> v.name)) {
        DerivationOps.varDomain(u.rule, v, catalog).count()
      }
    }
}
