package repro

import org.apache.spark.sql.SparkSession

/** The one Spark session recipe, shared by the tests, the figure benches and
  * the `jobs` entry point, so that what is measured is what ships.
  */
object Spark {

  /** A session on `SPARK_MASTER` (default `local[*]`). The pipelines here
    * are many small chained queries, so: interpreted plans (whole-stage
    * codegen compilation dominates at these data sizes), 8 shuffle
    * partitions (micro-query latency beats parallelism), and no broadcast
    * joins (the shuffle path is the one the paper's operators exercise).
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
