package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.datalog.Catalog

/** Input datasets pinned outside Spark's cache manager, so that clearing
  * the cache between questions keeps them, and a question never pays for
  * generating its input.
  */
object Pinning {

  /** Materialize every relation of `cat` with an eager `localCheckpoint`.
    * Returns the pinned catalog and its row count. (The catalog's relations
    * are all it carries: no dataset uses per-attribute domain overrides.)
    */
  def pin(cat: Catalog): (Catalog, Long) = {
    val rels = cat.relationNames.toSeq.sorted.map(n => n -> cat.relation(n).localCheckpoint(eager = true))
    (Catalog(rels: _*), rels.map(_._2.count()).sum)
  }

  def unpinAll(spark: SparkSession): Unit =
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
}
