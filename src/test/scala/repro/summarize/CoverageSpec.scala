package repro.summarize

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import scala.jdk.CollectionConverters._

class CoverageSpec extends SparkSpec {

  private val varCols  = Seq("X", "Z")
  private val goalCols = Seq("g0", "g1")
  private val schema = StructType(Seq(
    StructField("X", LongType), StructField("Z", LongType),
    StructField("g0", BooleanType), StructField("g1", BooleanType)))

  private def df(rows: Seq[(Option[Long], Option[Long], Boolean, Boolean)]) =
    spark.createDataFrame(
      rows.map { case (x, z, a, b) => Row(x.orNull, z.orNull, a, b) }.asJava, schema)

  test("match counts follow Def 5 (paper Ex 9 adapted)") {
    // Sample: the six X=2 derivations of the running example.
    val sample = df(Seq(
      (Some(2L), Some(1L), false, false), (Some(2L), Some(2L), false, true),
      (Some(2L), Some(3L), true, false), (Some(2L), Some(4L), true, false),
      (Some(2L), Some(5L), false, false), (Some(2L), Some(6L), false, false)))
    val cands = df(Seq(
      (Some(2L), None, false, false), // matches Z ∈ {1,5,6}
      (Some(2L), None, true, false),  // matches Z ∈ {3,4}
      (None, None, false, true),      // matches Z = 2
      (Some(2L), Some(4L), true, false))) // exactly one
    val got = Coverage.matchCounts(cands, sample, varCols, goalCols)
      .collect().map(r => ((Option(r.get(0)), Option(r.get(1)), r.getBoolean(2),
        r.getBoolean(3)), r.getLong(r.fieldIndex("__matches")))).toMap
    assert(got((Some(2L), None, false, false)) == 3L)
    assert(got((Some(2L), None, true, false)) == 2L)
    assert(got((None, None, false, true)) == 1L)
    assert(got((Some(2L), Some(4L), true, false)) == 1L)
  }

  test("match counts agree with client-side Pattern.matches on random data") {
    val rnd = new scala.util.Random(3)
    val sampleRows = Vector.fill(60)((Some(rnd.nextInt(4).toLong),
      Some(rnd.nextInt(4).toLong), rnd.nextBoolean(), rnd.nextBoolean()))
    val candRows = Vector.fill(25)((
      if (rnd.nextBoolean()) Some(rnd.nextInt(4).toLong) else None,
      if (rnd.nextBoolean()) Some(rnd.nextInt(4).toLong) else None,
      rnd.nextBoolean(), rnd.nextBoolean())).distinct
    val got = Coverage.matchCounts(df(candRows), df(sampleRows), varCols, goalCols)
      .collect().map(r => ((Option(r.get(0)), Option(r.get(1)), r.getBoolean(2),
        r.getBoolean(3)), r.getLong(r.fieldIndex("__matches")))).toMap
    candRows.foreach { case c @ (px, pz, g0, g1) =>
      val pat = Pattern("r", Vector(px, pz), Vector(g0, g1), 0.0)
      val exp = sampleRows.count { case (x, z, a, b) =>
        pat.matches(Seq(x.get, z.get), Seq(a, b)) }
      assert(got.getOrElse(c, 0L) == exp.toLong, s"pattern $c")
    }
  }

  test("collectPatterns converts rows, weights, and normalizes by sample size") {
    val sample = df(Seq((Some(1L), Some(1L), true, true), (Some(1L), Some(2L), true, true),
      (Some(2L), Some(2L), true, true), (Some(2L), Some(3L), true, true)))
    val cands  = df(Seq((Some(1L), None, true, true), (None, None, true, true)))
    val counted = Coverage.matchCounts(cands, sample, varCols, goalCols)
    val ps = Coverage.collectPatterns("r", counted, varCols, goalCols,
      sampleCount = 4L, provWeight = 0.5)
    val byArgs = ps.map(p => p.args -> p.cp).toMap
    assert(math.abs(byArgs(Vector(Some(1L), None)) - 0.5 * 2.0 / 4.0) < 1e-12)
    assert(math.abs(byArgs(Vector[Option[Any]](None, None)) - 0.5 * 1.0) < 1e-12)
    assert(ps.forall(_.ruleName == "r"))
    assert(ps.forall(_.goals == Vector(true, true)))
  }

  test("LCA + coverage on the full airbnb why-not provenance reproduces cp(p1) = 8/2160") {
    import repro.data.{Datasets, Queries}
    import repro.datalog.{Const, PTuple, Var, Whynot}
    val airbnb = Datasets.airbnb(spark)
    val t      = PTuple("AL", Vector(Var("N"), Const("shared")))
    val full = exact(Queries.airbnb, airbnb, t, Whynot).get
    val n = full.count()
    assert(n == 2160)
    val vcols = Seq("N", "I", "T", "E", "P")
    val gcols = Seq("g0", "g1")
    val cands = Lca.candidates(full, vcols, gcols)
    val counted = Coverage.matchCounts(cands, full, vcols, gcols)
    val ps = Coverage.collectPatterns("rA", counted, vcols, gcols, n, 1.0)
    // Paper Ex 3's pattern p1: all shared apt listings in Queen Anne,
    // (T,F) goals → 8/2160 of the provenance.
    val p1 = ps.filter(p => p.goals == Vector(true, false) &&
      p.args == Vector(None, None, Some("apt"), None, None))
    assert(p1.nonEmpty, "LCA should generate the apt pattern")
    assert(math.abs(p1.head.cp - 8.0 / 2160.0) < 1e-12)
  }
}
