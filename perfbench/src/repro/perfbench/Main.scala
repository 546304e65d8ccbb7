package repro.perfbench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.datalog.Catalog
import repro.summarize.Summarizer
import scala.collection.mutable
import scala.util.control.NonFatal

/** PUG-Summ benchmark: answers a workload's fixed list of provenance
  * questions through `Summarizer.summarize`, one after another from one
  * client (closed loop), in one local-mode Spark session; checks the
  * answers; prints one JSON record and, as the last line, the result.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
  *
  * Every question starts on an empty Spark cache, so no call reuses what
  * an earlier call cached. Input datasets are pinned with
  * `localCheckpoint`, outside Spark's cache manager, so clearing the cache
  * does not drop them and data generation is charged to set-up.
  */
object Main {

  /** Set-ups per run; `setup_s` reports their median. */
  val SetupCycles = 3
  /** Wall-clock budget of one question. */
  val QuestionBudgetS = 60
  /** Every question ends this long after the run began. */
  val RunDeadlineS = 160

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String)

  def parseArgs(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    val seconds = need("seconds").toInt
    require(seconds >= 1, s"--seconds must be at least 1")
    Opts(need("workload"), need("seed").toLong, seconds, trace, need("work-dir"))
  }

  def main(args: Array[String]): Unit = {
    val opts = parseArgs(args)
    Workloads(opts.workload, opts.seed) // reject an unknown workload before any set-up
    val code =
      try new Run(opts).execute()
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  def startSession(threads: Int, workDir: String): SparkSession =
    SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(workDir, "spark-local").toString)
      .config("spark.sql.warehouse.dir", Paths.get(workDir, "warehouse").toString)
      // The session the test suites and the figure benches use (build.sbt,
      // SparkSpec): interpreted plans, 8 shuffle partitions, no broadcast.
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) Double.NaN
    else if (n % 2 == 1) s(n / 2)
    else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** The outcome of one guarded call. */
sealed trait Outcome[+A]
final case class Done[A](value: A) extends Outcome[A]
final case class Failed(error: Throwable) extends Outcome[Nothing]
case object TimedOut extends Outcome[Nothing]

/** One question answered in one pass. */
final case class Answer(
    question: String,
    pass: Int,
    traced: Boolean,
    status: String,              // ok | error | timeout | check_failed
    detail: String,
    wallS: Double,
    result: Option[Summarizer.Result],
    summaryKey: String,
    jobs: Long,
    tasks: Long,
    executorMs: Long,
    shuffleWriteBytes: Long,
    leaked: Int,
    candidates: Option[Long],
    goalGroups: Seq[Seq[(Vector[Boolean], Long)]],
) {
  def ok: Boolean = status == "ok"
}

final class Run(opts: Main.Opts) {
  import Main._

  private val runStart = System.nanoTime()
  private val workload = Workloads(opts.workload, opts.seed)
  private val threads  = Runtime.getRuntime.availableProcessors()

  private var spark: SparkSession = _
  private var ledger: Ledger = _
  private var tracer: Tracer = _
  private var catalogs: Map[String, Catalog] = Map.empty
  private var pinnedRdds: Set[Int] = Set.empty
  /** Summary of each question's first answer; later answers must equal it. */
  private val reference = mutable.Map.empty[String, String]
  private val answers   = mutable.ArrayBuffer.empty[Answer]

  // ------------------------------------------------------------- set-up

  /** Generate the workload's datasets and pin them outside the cache
    * manager. Returns the generation time and the rows pinned.
    */
  private def generateAndPin(): (Double, Long) = {
    val t0 = System.nanoTime()
    var rows = 0L
    catalogs = workload.datasets.map { case (name, make) =>
      val (cat, n) = Pinning.pin(make(spark))
      rows += n
      name -> cat
    }.toMap
    pinnedRdds = spark.sparkContext.getPersistentRDDs.keySet.toSet
    (seconds(t0), rows)
  }

  private def setUp(): (Double, Double, Long) = {
    val cycles = (1 to SetupCycles).map { _ =>
      val t0 = System.nanoTime()
      if (spark != null) { Pinning.unpinAll(spark); spark.stop() }
      spark = startSession(threads, opts.workDir)
      val (genS, rows) = generateAndPin()
      log(f"set-up ${seconds(t0)}%.3fs (data $genS%.3fs, $rows rows)")
      (seconds(t0), genS, rows)
    }
    ledger = new Ledger(spark.sparkContext)
    tracer = new Tracer(spark.sparkContext)
    (median(cycles.map(_._1)), median(cycles.map(_._2)), cycles.last._3)
  }

  // ---------------------------------------------------------- questions

  /** Drop everything cached except the pinned inputs, and return how many
    * persistent RDDs were left registered.
    */
  private def release(): Int = {
    val sc = spark.sparkContext
    val leaked = sc.getPersistentRDDs.filter { case (id, _) => !pinnedRdds(id) }
    leaked.values.foreach(_.unpersist(blocking = true))
    spark.catalog.clearCache()
    leaked.size
  }

  /** Run `body` on its own thread within `budgetS` seconds; on expiry,
    * cancel its Spark jobs. An exception is an error, not a timeout.
    */
  private def guarded[A](budgetS: Double)(body: => A): Outcome[A] = {
    val sc  = spark.sparkContext
    val tag = s"guard-${System.nanoTime()}"
    @volatile var out: Outcome[A] = TimedOut
    val worker = new Thread(() => {
      sc.addJobTag(tag)
      try out = Done(body)
      catch { case e: Throwable => out = Failed(e) }
      finally { sc.removeJobTag(tag); sc.clearJobGroup() }
    }, "perfbench-question")
    worker.setDaemon(true)
    worker.start()
    worker.join(math.max(1L, (budgetS * 1000).toLong))
    if (worker.isAlive) {
      sc.cancelJobsWithTag(tag)
      worker.join(30000L)
      TimedOut
    } else out
  }

  private def log(msg: String): Unit =
    Console.err.println(f"[perfbench +${seconds(runStart)}%.1fs] $msg")

  private def remainingS: Double = RunDeadlineS - seconds(runStart)

  private def ask(q: Question, pass: Int, traced: Boolean): Answer = {
    release()
    val cat   = catalogs(q.data)
    val group = s"q:${q.name}:$pass"
    tracer.pass = pass
    val firstSpan = tracer.spans.size
    val outcome = guarded(math.min(QuestionBudgetS, remainingS)) {
      val t0 = System.nanoTime()
      val (res, seen) =
        if (traced)
          tracer.span("question", q.name) {
            Replay.summarize(spark, tracer, q.name, q.program, cat, q.pq, q.cfg)
          }
        else {
          spark.sparkContext.setJobGroup(group, group, interruptOnCancel = true)
          (Summarizer.summarize(spark, q.program, cat, q.pq, q.cfg), Replay.Seen(-1))
        }
      (res, seen, seconds(t0))
    }
    ledger.drain()
    val tally =
      if (traced) {
        val ids = tracer.spans.drop(firstSpan).map(_.group).toSet
        ledger.total(ids)
      } else ledger.get(group)
    val leaked = spark.sparkContext.getPersistentRDDs.keySet.count(id => !pinnedRdds(id))

    def unanswered(status: String, detail: String) =
      Answer(q.name, pass, traced, status, detail, Double.NaN, None, "",
        tally.jobs, tally.tasks, tally.executorMs, tally.shuffleWriteBytes, leaked, None, Nil)
    val answer = outcome match {
      case Done((res, seen, wall)) =>
        val key = Checks.summaryKey(res)
        val (groups, problems) =
          try Checks.check(spark, q, res, reference.get(q.name), key)
          catch { case NonFatal(e) => (Nil, Seq(s"check crashed: $e")) }
        reference.getOrElseUpdate(q.name, key)
        Answer(q.name, pass, traced, if (problems.isEmpty) "ok" else "check_failed",
          problems.mkString("; "), wall, Some(res), key, tally.jobs, tally.tasks,
          tally.executorMs, tally.shuffleWriteBytes, leaked,
          Option(seen.candidates).filter(_ >= 0), groups)
      case Failed(e) =>
        log(s"${q.name} pass $pass failed:")
        e.printStackTrace()
        unanswered("error", e.toString)
      case TimedOut =>
        unanswered("timeout", s"over ${QuestionBudgetS}s")
    }
    release()
    if (traced && answer.ok) {
      guarded(math.min(QuestionBudgetS, remainingS)) {
        Replay.probe(tracer, q.name, q.program, cat, q.pq)
      }
      ledger.drain()
      release()
    }
    log(f"pass $pass ${if (traced) "traced " else ""}${q.name}: " +
      f"${answer.status} ${answer.wallS}%.3fs jobs=${answer.jobs} leaked=${answer.leaked}")
    answers += answer
    answer
  }

  private def pass(n: Int, traced: Boolean): Unit =
    workload.questions.foreach(q => ask(q, n, traced))

  // ---------------------------------------------------------------- run

  def execute(): Int = {
    Files.createDirectories(Paths.get(opts.workDir))
    val (setupCycleS, generateS, rows) = setUp()
    val t0 = System.nanoTime()
    ask(workload.warmup, 0, traced = false)
    val warmupS = seconds(t0)

    // Measured passes: whole passes until `--seconds` have passed. A traced
    // run alternates untraced and traced passes, starting and ending
    // untraced, so the traced passes sit between untraced ones.
    // A pass starts only if it will likely end before the run's deadline.
    val measureStart = System.nanoTime()
    val minPasses = if (opts.trace) 3 else 1
    var lastPassS = 0.0
    def fits = remainingS > 1.5 * lastPassS
    def measure(n: Int): Unit = {
      val t = System.nanoTime()
      pass(n, traced = opts.trace && n % 2 == 0)
      lastPassS = seconds(t)
    }
    var n = 1
    while (fits && (n <= minPasses || seconds(measureStart) < opts.seconds)) { measure(n); n += 1 }
    if (opts.trace && n % 2 == 1 && fits) measure(n)

    val report = new Report(opts, workload, answers.toSeq, tracer, ledger, threads, spark)
    val setupS = setupCycleS + warmupS
    val record = report.record(setupS, setupCycleS, warmupS, generateS, rows)
    println(Json(Map("record" -> record)))
    val metrics = if (opts.trace) report.perLayer(generateS, rows) else report.endToEnd(setupS)
    val measured = answers.filter(_.pass > 0)
    Pinning.unpinAll(spark)
    spark.stop()
    println(Json(Map(
      "correct"   -> (answers.nonEmpty && answers.forall(_.ok)),
      "attempted" -> measured.size,
      "failed"    -> measured.count(!_.ok),
      "metrics"   -> metrics)))
    0
  }
}
