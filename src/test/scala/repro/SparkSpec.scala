package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.datalog.{Catalog, PQType, PTuple, Program, ProvQuestion}
import repro.sampling.BatchSampler

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Session settings come from [[Spark.session]].
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Every annotated derivation of `program`'s first rule for `(t, qtype)`,
    * the ground truth tests compare against; None when there is none.
    */
  def exact(program: Program, cat: Catalog, t: PTuple, qtype: PQType): Option[DataFrame] =
    BatchSampler.sample(spark, program, program.rules.head, cat, ProvQuestion(t, qtype),
      BatchSampler.Exact).map(_.sample)

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Spark.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
