package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.datalog.{Why, Whynot}
import repro.summarize.Summarizer

/** Correctness checks on one answered question. A failed check fails the
  * question; it is counted, not just printed.
  */
object Checks {

  /** The summary as text: patterns in order with their cp, then the bounds.
    * Two answers to one question must give the same key.
    */
  def summaryKey(res: Summarizer.Result): String = {
    val s = res.summary
    val ps = s.patterns.map { p =>
      val args  = p.args.map(_.fold("?")(_.toString)).mkString(",")
      val goals = p.goals.map(g => if (g) "T" else "F").mkString
      s"${p.ruleName}($args)[$goals] cp=${p.cp}"
    }
    s"${ps.mkString(" | ")} cpLow=${s.cpLow} cpHigh=${s.cpHigh} info=${s.info} optimal=${s.optimal}"
  }

  /** Sample rows per goal-annotation vector, one list per rule sample. */
  def goalGroups(res: Summarizer.Result): Seq[Seq[(Vector[Boolean], Long)]] =
    res.ruleSamples.map { rs =>
      rs.sample.groupBy(rs.goalColNames.map(col): _*).count().collect().toSeq.map { r =>
        (rs.goalColNames.indices.map(r.getBoolean).toVector, r.getLong(rs.goalColNames.size))
      }
    }

  /** Run every check on `res`. Returns the goal groups (reused for the
    * per-layer counts) and the failed checks.
    */
  def check(
      spark: SparkSession,
      q: Question,
      res: Summarizer.Result,
      reference: Option[String],
      key: String,
  ): (Seq[Seq[(Vector[Boolean], Long)]], Seq[String]) = {
    val sc = spark.sparkContext
    sc.setJobGroup("check", "perfbench checks")
    val groups = try goalGroups(res) finally sc.clearJobGroup()
    val problems = Seq.newBuilder[String]

    if (res.summary.patterns.isEmpty) problems += "empty summary"
    res.ruleSamples.zip(groups).foreach { case (rs, gs) =>
      val rows = gs.map(_._2).sum
      if (rows != rs.sampleCount)
        problems += s"${rs.rule.name}: sample has $rows rows, reported ${rs.sampleCount}"
      q.pq.qtype match {
        case Whynot if gs.exists(_._1.forall(identity)) =>
          problems += s"${rs.rule.name}: why-not sample row with every goal true"
        case Why if gs.exists(!_._1.forall(identity)) =>
          problems += s"${rs.rule.name}: why sample row with a failed goal"
        case _ =>
      }
    }
    q.expectedDerivations.foreach { n =>
      val got = res.ruleSamples.map(_.sampleCount).sum
      if (got != n || !res.ruleSamples.forall(_.exact))
        problems += s"expected exactly $n derivations, got $got (exact=${res.ruleSamples.map(_.exact)})"
    }
    reference.filter(_ != key).foreach { ref =>
      problems += s"summary differs from the first answer: $key vs $ref"
    }
    (groups, problems.result())
  }
}
