package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ListMap
import scala.jdk.CollectionConverters._

/** Turns a run's answers and spans into the metrics and the record. */
final class Report(
    opts: Main.Opts,
    workload: Workload,
    answers: Seq[Answer],
    tracer: Tracer,
    ledger: Ledger,
    threads: Int,
    spark: SparkSession,
) {
  import Main.median

  private def metric(v: Double, unit: String) = ListMap("value" -> v, "unit" -> unit)

  private val measured = answers.filter(_.pass > 0)
  private def passes(traced: Boolean): Seq[Seq[Answer]] =
    measured.filter(_.traced == traced).groupBy(_.pass).toSeq.sortBy(_._1).map(_._2)

  /** Wall of each complete pass: its questions' walls, one after another. */
  private def passWalls(traced: Boolean): Seq[Double] =
    passes(traced).filter(p => p.size == workload.questions.size && p.forall(_.ok))
      .map(_.map(_.wallS).sum)

  private def meanOf(p: Seq[Answer])(f: Answer => Double): Double =
    p.flatMap(a => a.result.map(_ => f(a))).sum / p.size

  def endToEnd(setupS: Double): ListMap[String, Any] = {
    val ps = passes(traced = false)
    ListMap(
      "wall_s"       -> metric(median(passWalls(traced = false)), "s"),
      "setup_s"      -> metric(setupS, "s"),
      "summary_cp"   -> metric(median(ps.map(meanOf(_)(_.result.get.summary.cpLow))), "share"),
      "summary_info" -> metric(median(ps.map(meanOf(_)(_.result.get.summary.info))), "share"),
      "ok_share"     -> metric(measured.count(_.ok).toDouble / math.max(1, measured.size), "share"),
    )
  }

  // ---------------------------------------------------------- per layer

  private val Layers = Seq("sampling", "lca", "match", "topk")

  /** Per-layer figures of one traced pass. */
  private def layerFigures(pass: Seq[Answer]): Map[String, Double] = {
    val n     = pass.head.pass
    val spans = tracer.spans.filter(_.pass == n)
    val qs    = spans.filter(_.name == "question")
    val wall  = qs.map(_.seconds).sum
    val res   = pass.flatMap(_.result)
    val execS = pass.map(_.executorMs).sum / 1000.0
    def layer(l: String) = spans.filter(_.name == l)
    val perLayer = Layers.flatMap { l =>
      Seq(s"$l.s" -> layer(l).map(tracer.selfSeconds).sum,
          s"$l.jobs" -> layer(l).map(s => ledger.get(s.group).jobs).sum.toDouble)
    }.toMap

    val sampled = res.flatMap(_.ruleSamples).filterNot(_.exact)
    val draws   = sampled.map(_.nOS).sum.toDouble
    // Per goal group g of each rule: |sample_g| and |cands_g| (the collected
    // patterns are exactly the distinct LCA candidates).
    val groupSizes = pass.filter(_.result.isDefined).flatMap { a =>
      val r = a.result.get
      val candsByGroup = r.allPatterns.groupBy(p => (p.ruleName, p.goals)).map { case (k, v) => k -> v.size.toLong }
      r.ruleSamples.zip(a.goalGroups).flatMap { case (rs, gs) =>
        gs.map { case (goals, size) => (size, candsByGroup.getOrElse((rs.rule.name, goals), 0L)) }
      }
    }
    val maxPatterns = workload.questions.head.cfg.maxPatterns
    val collected   = res.map(_.allPatterns.size.toDouble).sum
    val kept        = res.map(r => math.min(maxPatterns, r.allPatterns.size).toDouble).sum
    val coverage = qs.map { q =>
      tracer.children(q).map(_.seconds).sum / q.seconds
    }

    perLayer ++ Map(
      "spark.jobs"             -> pass.map(_.jobs).sum.toDouble,
      "spark.tasks"            -> pass.map(_.tasks).sum.toDouble,
      "spark.executor_s"       -> execS,
      "spark.shuffle_write_mb" -> pass.map(_.shuffleWriteBytes).sum / 1e6,
      "spark.idle_core_share"  -> (1.0 - execS / (wall * threads)),
      "sampling.draws"         -> draws,
      "sampling.rows"          -> res.flatMap(_.ruleSamples).map(_.sampleCount).sum.toDouble,
      "sampling.yield"         -> (if (draws > 0) sampled.map(_.sampleCount).sum / draws else 0.0),
      "sampling.exact_rules"   -> res.flatMap(_.ruleSamples).count(_.exact).toDouble,
      "datalog.answers_s"      -> spans.filter(_.name == "probe.answers").map(_.seconds).sum,
      "prov.domains"           -> spans.count(_.name == "probe.domain").toDouble,
      "prov.domain_s"          -> spans.filter(_.name == "probe.domain").map(_.seconds).sum,
      "lca.pairs"              -> groupSizes.map { case (s, _) => s.toDouble * s }.sum,
      "lca.candidates"         -> pass.flatMap(_.candidates).sum.toDouble,
      "match.comparisons"      -> groupSizes.map { case (s, c) => s.toDouble * c }.sum,
      "match.collected"        -> collected,
      "match.kept_share"       -> (if (collected > 0) kept / collected else 0.0),
      "topk.pops"              -> res.map(_.summary.pops).sum.toDouble,
      "topk.optimal_share"     -> res.count(_.summary.optimal).toDouble / math.max(1, res.size),
      "topk.patterns_in"       -> res.map(r => math.min(maxPatterns, r.allPatterns.distinct.size).toDouble).sum,
      "trace.span_coverage"    -> (if (coverage.isEmpty) 0.0 else coverage.min),
    )
  }

  private val LayerUnits: ListMap[String, String] = ListMap(
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.executor_s" -> "s",
    "spark.shuffle_write_mb" -> "MB", "spark.idle_core_share" -> "share",
    "sampling.s" -> "s", "sampling.jobs" -> "count", "sampling.draws" -> "count",
    "sampling.rows" -> "count", "sampling.yield" -> "share", "sampling.exact_rules" -> "count",
    "datalog.answers_s" -> "s", "prov.domains" -> "count", "prov.domain_s" -> "s",
    "lca.s" -> "s", "lca.jobs" -> "count", "lca.pairs" -> "count", "lca.candidates" -> "count",
    "match.s" -> "s", "match.jobs" -> "count", "match.comparisons" -> "count",
    "match.collected" -> "count", "match.kept_share" -> "share",
    "topk.s" -> "s", "topk.pops" -> "count", "topk.optimal_share" -> "share",
    "topk.patterns_in" -> "count",
    "trace.span_coverage" -> "share",
  )

  def perLayer(generateS: Double, rows: Long): ListMap[String, Any] = {
    val traced = passes(traced = true).filter(p => p.size == workload.questions.size && p.forall(_.ok))
    val figs   = traced.map(layerFigures)
    val layers = LayerUnits.map { case (k, unit) => k -> metric(median(figs.map(_(k))), unit) }
    layers ++ ListMap(
      "cache.leaked"     -> metric(median(passes(traced = false).map(_.map(_.leaked.toDouble).sum)), "count"),
      "count.mismatches" -> metric(mismatches.size.toDouble, "count"),
      "data.generate_s"  -> metric(generateS, "s"),
      "data.rows"        -> metric(rows.toDouble, "count"),
      "trace.overhead_s" -> metric(median(passWalls(traced = true)) - median(passWalls(traced = false)), "s"),
    )
  }

  // ------------------------------------------------------------ record

  /** Counts that must repeat exactly across every pass of a run, per
    * question: (question, counter) → the distinct values seen.
    */
  lazy val mismatches: Map[String, Seq[Long]] = {
    val counters: Seq[(String, Answer => Option[Long])] = Seq(
      "spark.jobs"      -> (a => Some(a.jobs)),
      "spark.tasks"     -> (a => Some(a.tasks)),
      "sampling.draws"  -> (a => a.result.map(_.ruleSamples.map(_.nOS).sum)),
      "lca.candidates"  -> (a => a.candidates),
      "match.collected" -> (a => a.result.map(_.allPatterns.size.toLong)),
      "topk.pops"       -> (a => a.result.map(_.summary.pops)),
      "leaked_caches"   -> (a => Some(a.leaked.toLong)),
    )
    (for {
      (q, as)     <- answers.filter(_.ok).groupBy(_.question).toSeq
      (name, get) <- counters
      values = as.sortBy(_.pass).flatMap(get).distinct
      if values.size > 1
    } yield s"$q/$name" -> values).toMap
  }

  /** Timing summary: median, and the highest percentile that has at least
    * ten samples beyond it (none below 20 samples), with the count.
    */
  private def timing(xs: Seq[Double]): ListMap[String, Any] = {
    val s = xs.sorted
    val tail =
      if (s.size < 20) None
      else {
        val pct = math.floor(100.0 * (1 - 10.0 / s.size)).toInt
        Some(ListMap("pct" -> pct, "value" -> s(math.ceil(pct / 100.0 * s.size).toInt - 1)))
      }
    ListMap("n" -> s.size, "median" -> median(s), "max" -> s.lastOption, "tail" -> tail)
  }

  private def environment: ListMap[String, Any] = {
    val conf = spark.conf
    ListMap(
      "commit"             -> sys.env.getOrElse("PERFBENCH_COMMIT", "unknown"),
      "source_digest"      -> sys.env.getOrElse("PERFBENCH_SOURCE_DIGEST", "unknown"),
      "nproc"              -> Runtime.getRuntime.availableProcessors(),
      "master"             -> spark.sparkContext.master,
      "task_threads"       -> spark.sparkContext.defaultParallelism,
      "codegen_wholestage" -> conf.get("spark.sql.codegen.wholeStage"),
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "aqe"                -> conf.get("spark.sql.adaptive.enabled", "true"),
      "driver_heap_mb"     -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "gc"                 -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "jvm"                -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "spark"              -> spark.version,
      "scala"              -> scala.util.Properties.versionNumberString,
    )
  }

  def record(setupS: Double, setupCycleS: Double, warmupS: Double, generateS: Double, rows: Long): ListMap[String, Any] = {
    val qWalls = measured.filter(a => !a.traced && a.ok).map(_.wallS)
    ListMap(
      "workload"    -> workload.name,
      "seed"        -> opts.seed,
      "seconds"     -> opts.seconds,
      "trace"       -> opts.trace,
      "environment" -> environment,
      "client"      -> "closed loop, 1 client, questions one after another",
      "setup"       -> ListMap("setup_s" -> setupS, "cycle_median_s" -> setupCycleS,
        "cycles" -> Main.SetupCycles, "warmup_s" -> warmupS,
        "generate_s" -> generateS, "rows" -> rows),
      "wall_s"        -> timing(passWalls(traced = false)),
      "question_wall_s" -> timing(qWalls),
      "error_rate"    -> measured.count(!_.ok).toDouble / math.max(1, measured.size),
      "errors"        -> measured.count(_.status == "error"),
      "timeouts"      -> measured.count(_.status == "timeout"),
      "check_failures" -> measured.count(_.status == "check_failed"),
      "count_mismatches" -> mismatches,
      "unattributed_jobs" -> ledger.unattributed.jobs,
      "answers" -> answers.map { a =>
        ListMap(
          "question" -> a.question, "pass" -> a.pass, "traced" -> a.traced,
          "status" -> a.status, "detail" -> a.detail, "wall_s" -> a.wallS,
          "jobs" -> a.jobs, "tasks" -> a.tasks, "executor_s" -> a.executorMs / 1000.0,
          "shuffle_write_mb" -> a.shuffleWriteBytes / 1e6, "leaked_caches" -> a.leaked,
          "cp_low" -> a.result.map(_.summary.cpLow), "info" -> a.result.map(_.summary.info),
          "optimal" -> a.result.map(_.summary.optimal), "pops" -> a.result.map(_.summary.pops),
          "stage_ms" -> a.result.filter(_ => !a.traced).map(r => ListMap("sample" -> r.times.sampleMs,
            "lca" -> r.times.lcaMs, "match" -> r.times.matchMs, "topk" -> r.times.topkMs)),
          "rules" -> a.result.toSeq.flatMap(_.ruleSamples.map(rs => ListMap(
            "rule" -> rs.rule.name, "exact" -> rs.exact, "n_os" -> rs.nOS,
            "sample" -> rs.sampleCount, "prov_estimate" -> rs.provEstimate))),
          "summary" -> a.summaryKey)
      },
      "spans" -> tracer.spans.map { s =>
        ListMap("id" -> s.id, "name" -> s.name, "question" -> s.question, "pass" -> s.pass,
          "parent" -> s.parent, "start_s" -> s.startNs / 1e9, "seconds" -> s.seconds,
          "self_s" -> tracer.selfSeconds(s), "jobs" -> ledger.get(s.group).jobs,
          "attrs" -> s.attrs)
      },
    )
  }
}
