package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spark work charged to one job group. */
final case class Tally(jobs: Long, tasks: Long, executorMs: Long, shuffleWriteBytes: Long) {
  def +(o: Tally): Tally =
    Tally(jobs + o.jobs, tasks + o.tasks, executorMs + o.executorMs, shuffleWriteBytes + o.shuffleWriteBytes)
}
object Tally { val zero: Tally = Tally(0, 0, 0, 0) }

/** Charges Spark jobs, tasks, executor run time and shuffle bytes to the job
  * group that was set when the job started. Call sites cannot do this: most
  * jobs of a question are adaptive-query-execution stage jobs submitted from
  * a `CompletableFuture`, but they inherit the submitting thread's job group.
  */
final class Ledger(sc: SparkContext) extends SparkListener {
  /** Local property holding the job group (`SparkContext.SPARK_JOB_GROUP_ID`). */
  private val JobGroupKey = "spark.jobGroup.id"
  private val NoGroup = "(none)"
  private val FenceGroup = "__fence"
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val jobGroup   = new ConcurrentHashMap[Int, String]()
  private val tallies    = mutable.Map.empty[String, Tally]
  @volatile private var fencesSeen = 0L
  private var fencesRun = 0L

  sc.addSparkListener(this)

  private def add(g: String, t: Tally): Unit = tallies.synchronized {
    tallies(g) = tallies.getOrElse(g, Tally.zero) + t
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty(JobGroupKey)))
      .getOrElse(NoGroup)
    jobGroup.put(e.jobId, g)
    e.stageIds.foreach(stageGroup.put(_, g))
    if (g != FenceGroup) add(g, Tally(1, 0, 0, 0))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.getOrDefault(e.stageId, NoGroup)
    val m = e.taskMetrics
    if (g != FenceGroup)
      add(g, Tally(0, 1,
        if (m == null) 0 else m.executorRunTime,
        if (m == null) 0 else m.shuffleWriteMetrics.bytesWritten))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (jobGroup.remove(e.jobId) == FenceGroup) fencesSeen += 1

  /** Block until every event posted before this call has reached the
    * ledger: run a one-task job and wait for its end event, which the
    * listener queue delivers after all earlier events.
    */
  def drain(): Unit = {
    val prev = sc.getLocalProperty(JobGroupKey)
    sc.setJobGroup(FenceGroup, "ledger fence")
    try sc.parallelize(Seq(1), 1).count()
    finally if (prev == null) sc.clearJobGroup() else sc.setJobGroup(prev, prev)
    fencesRun += 1
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (fencesSeen < fencesRun && System.nanoTime() < deadline) Thread.sleep(1)
  }

  /** Sum of the tallies of every group accepted by `p`. */
  def total(p: String => Boolean): Tally = tallies.synchronized {
    tallies.collect { case (g, t) if p(g) => t }.foldLeft(Tally.zero)(_ + _)
  }

  def get(group: String): Tally = tallies.synchronized(tallies.getOrElse(group, Tally.zero))

  /** Jobs that ran with no job group set (should stay 0). */
  def unattributed: Tally = get(NoGroup)
}

/** One traced interval: a question or a call into one layer. */
final case class Span(
    id: Int, name: String, question: String, pass: Int, parent: Option[Int],
    startNs: Long, endNs: Long, attrs: Map[String, Any]) {
  def seconds: Double = (endNs - startNs) / 1e9
  def group: String = s"span-$id"
}

/** Records spans in memory. Opening a span sets its job group, so the
  * [[Ledger]] charges the Spark jobs issued inside it to the span; closing
  * it restores the enclosing span's group.
  */
final class Tracer(sc: SparkContext) {
  private var nextId = 0
  private val open   = mutable.Stack.empty[(Int, String, String, Long)]
  val spans = mutable.ArrayBuffer.empty[Span]

  /** The pass that spans opened from now on belong to. */
  @volatile var pass = 0

  def span[A](name: String, question: String, attrs: Map[String, Any] = Map.empty)(body: => A): A = {
    nextId += 1
    val id = nextId
    val parent = open.headOption.map(_._1)
    sc.setJobGroup(s"span-$id", s"$question $name", interruptOnCancel = true)
    open.push((id, name, question, System.nanoTime()))
    try body
    finally {
      val (_, _, _, t0) = open.pop()
      spans += Span(id, name, question, pass, parent, t0, System.nanoTime(), attrs)
      open.headOption match {
        case Some((pid, pname, pq, _)) => sc.setJobGroup(s"span-$pid", s"$pq $pname", interruptOnCancel = true)
        case None                      => sc.clearJobGroup()
      }
    }
  }

  def children(s: Span): Seq[Span] = spans.filter(_.parent.contains(s.id)).toSeq

  /** Duration minus the part covered by direct children (which never overlap:
    * one client thread). */
  def selfSeconds(s: Span): Double = s.seconds - children(s).map(_.seconds).sum
}
