package repro.sampling

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog._

class BatchSamplerSpec extends SparkSpec {

  private lazy val rex    = Datasets.runningExample(spark)
  private lazy val airbnb = Datasets.airbnb(spark)
  private val tEx         = PTuple("Qex", Vector(Var("X"), Const(4L)))
  private val tAirbnb     = PTuple("AL", Vector(Var("N"), Const("shared")))
  private val cfg         = BatchSampler.Config(nS = 50, seed = 7L)

  test("draw takes exactly n values from the domain") {
    import spark.implicits._
    val dom = Seq(10L, 20L, 30L).toDF("X")
    val s   = BatchSampler.draw(spark, Seq((dom, 3L)), 100, 1L)
    assert(s.count() == 100)
    val values = s.select("X").collect().map(_.getLong(0)).toSet
    assert(values.subsetOf(Set(10L, 20L, 30L)))
    // With 100 draws over 3 values, all values appear w.h.p. (deterministic seed).
    assert(values == Set(10L, 20L, 30L))
    // Draw ids are 0..n-1, each exactly once.
    val ids = s.select("__sid").collect().map(_.getLong(0)).sorted
    assert(ids.toSeq == (0L until 100L))
  }

  test("draw is deterministic in the seed") {
    import spark.implicits._
    val dom = Seq(1L, 2L, 3L, 4L).toDF("X")
    def draw(seed: Long) = BatchSampler
      .draw(spark, Seq((dom, 4L)), 50, seed)
      .orderBy("__sid").collect().map(_.getLong(1)).toSeq
    assert(draw(5L) == draw(5L))
    assert(draw(5L) != draw(6L))
  }

  test("draw is roughly uniform") {
    import spark.implicits._
    val dom = (1L to 10L).toDF("X")
    val s = BatchSampler.draw(spark, Seq((dom, 10L)), 10000, 3L)
    val counts = s.groupBy("X").count().collect().map(_.getLong(1))
    assert(counts.length == 10)
    // Expected 1000 per value; allow ±20%.
    counts.foreach(c => assert(c > 800 && c < 1200, s"count $c"))
  }

  test("whynot sample on a tiny space returns the full provenance (exact)") {
    val s = BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, tEx, cfg).get
    assert(s.exact)
    val full = exact(Queries.rEx, rex, tEx, Whynot).get
    assert(s.sampleCount == full.count())
  }

  test("whynot sample rows are genuine why-not derivations (airbnb)") {
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, cfg).get
    assert(s.sampleCount > 0)
    val full = exact(Queries.airbnb, airbnb, tAirbnb, Whynot).get
    // Every sampled row appears in the full enumeration (compare as strings).
    val fullSet = full.collect().map(_.mkString("|")).toSet
    s.sample.collect().foreach(r => assert(fullSet.contains(r.mkString("|")), r))
  }

  test("forced sampling path also returns only genuine derivations") {
    // fullEnumFactor=0 disables the exact-enumeration shortcut.
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 100)
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, forced).get
    assert(!s.exact)
    assert(s.nOS >= 100)
    val full = exact(Queries.airbnb, airbnb, tAirbnb, Whynot).get
    val fullSet = full.collect().map(_.mkString("|")).toSet
    val rows    = s.sample.collect()
    assert(rows.nonEmpty && rows.length <= 100)
    rows.foreach(r => assert(fullSet.contains(r.mkString("|")), r))
    // Sample has no duplicates (δ applied).
    assert(rows.map(_.mkString("|")).distinct.length == rows.length)
  }

  test("sampling covers a large fraction of a small space at nS close to |Prov|") {
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 2000, seed = 11L)
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, forced).get
    // 2160 total; 2000 with-replacement draws should reach ~60% of it
    // (E[distinct] ≈ 2160·(1−(1−1/2160)^2000) ≈ 1305).
    assert(s.sampleCount > 1100, s"got ${s.sampleCount}")
  }

  test("provenance-size estimate matches the true count on the airbnb example") {
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, cfg).get
    // All 2160 derivations are why-not (no shared answers exist) → estimate exact.
    assert(math.abs(s.provEstimate - 2160.0) < 1e-6)
  }

  test("p_notProv correction: existing answers shrink the estimate") {
    import spark.implicits._
    val d6  = Seq(1L, 2L, 3L, 4L, 5L, 6L).toDF("v")
    val cat = rex.withDomain("R", 0, d6).withDomain("R", 1, d6)
    val s = BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      cat, tEx, cfg).get
    // Space: X∈{1,2,3} (X<4 pushed into domain), Z∈{1..6} → 18; existing
    // answer (1,4) has 6 derivations → estimate 18·(1 − 1/3) = 12.
    assert(math.abs(s.provEstimate - 12.0) < 1e-6)
    assert(s.sampleCount == 12) // tiny space → exact
  }

  test("whynot sample of an existing answer is None") {
    val t = PTuple("Qex", Vector(Const(1L), Const(4L)))
    assert(BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).isEmpty)
  }

  test("whynot sample with violated static comparison is None") {
    val t = PTuple("Qex", Vector(Const(5L), Const(4L)))
    assert(BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).isEmpty)
  }

  test("ground question (single existential var, head missing)") {
    val t = PTuple("Qex", Vector(Const(2L), Const(4L)))
    val s = BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).get
    assert(s.sampleCount == 6) // Z over {1..6}
    assert(s.varCols == Seq("Z"))
  }

  test("why sample returns successful derivations only") {
    val s = BatchSampler.whySample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, PTuple("AL", Vector(Var("N"), Var("R"))), cfg).get
    assert(s.sampleCount == 2 && s.exact)
    assert(s.provEstimate == 2.0)
    val rows = s.sample.collect()
    rows.foreach { r =>
      s.goalColNames.foreach(g => assert(r.getBoolean(r.fieldIndex(g))))
    }
  }

  test("why sample caps at nS when the provenance is larger") {
    val cat = Datasets.license(spark, 1000)
    val t   = PTuple("InvalidD", Vector(Var("C")))
    val s = BatchSampler.whySample(spark, Queries.r1, Queries.r1.rules.head,
      cat, t, cfg.copy(nS = 10)).get
    assert(s.sampleCount == 10)
    assert(!s.exact)
    assert(s.provEstimate > 10)
  }

  test("same seed, same sample: row digests at seed 42") {
    def digest(s: BatchSampler.RuleSample): String = {
      val rows = s.sample.collect().map(_.mkString("|")).sorted.mkString("\n")
      java.security.MessageDigest.getInstance("SHA-256")
        .digest(rows.getBytes("UTF-8")).map("%02x".format(_)).mkString
    }
    val r1 = BatchSampler.sample(spark, Queries.r1, Queries.r1.rules.head,
      Datasets.license(spark, 2000), Queries.whynotR1, BatchSampler.Config(nS = 200, seed = 42L)).get
    assert((r1.exact, r1.sampleCount, r1.nOS) == ((false, 200L, 200L)))
    assert(digest(r1) == "0096a4ac554e1f2f0ad5c60720b8c5a2d9dc53b82be1ec64ca02d5f3e67ecfb0")
    val forced = BatchSampler.sample(spark, Queries.airbnb, Queries.airbnb.rules.head, airbnb,
      Queries.whynotAirbnb, BatchSampler.Config(nS = 100, seed = 42L, fullEnumFactor = 0.0)).get
    assert((forced.exact, forced.sampleCount, forced.nOS) == ((false, 98L, 100L)))
    assert(digest(forced) == "9a2125c4f6ff409762795bf0a84eeb9147a8a772eb90783cd18f52116aae7a73")
    // The three rules of a union, sampled in one question scope.
    val r4 = BatchSampler.sampleRules(spark, Queries.r4, Queries.r4.rules, Datasets.movies(spark, 100),
      Queries.whynotR4, BatchSampler.Config(nS = 30, seed = 42L))
    assert(r4.map(s => (s.rule.name, s.exact, s.sampleCount, s.nOS)) ==
      Vector(("r4", false, 30L, 30L), ("r4p", false, 30L, 30L), ("r4pp", false, 30L, 30L)))
    assert(r4.map(digest) == Vector(
      "2e3c24ff861ef7c24beafa8ad560cc59a53cdb7143afc9eac55b9d6011bd9dd4",
      "fc08b66ee522bd604b8836964da3a540439689e5aae853ac2b4e274d66b85bfd",
      "b147bdda1e4127b29e9a8b10d723043dfc5354da7e8057fcbc071e98879b5d95"))
    assert(r4.forall(_.provEstimate == 4.032346485189536E22))
  }

  test("takeN is deterministic and bounded") {
    val df = spark.range(0, 100).select(col("id").as("X"))
    val a  = BatchSampler.takeN(df, 10, 1L).collect().map(_.getLong(0)).toSeq
    val b  = BatchSampler.takeN(df, 10, 1L).collect().map(_.getLong(0)).toSeq
    val c  = BatchSampler.takeN(df, 10, 2L).collect().map(_.getLong(0)).toSeq
    assert(a == b)
    assert(a != c)
    assert(a.length == 10)
  }

  test("union-rule sampling: each rule of r4 produces its own sample") {
    val cat = Datasets.movies(spark, 100)
    val t   = PTuple("Players", Vector(Const("tom ford")))
    val samples = Queries.r4.rules.flatMap(r =>
      BatchSampler.whynotSample(spark, Queries.r4, r, cat, t, cfg.copy(nS = 20)))
    assert(samples.size == 3)
    samples.foreach(s => assert(s.sampleCount > 0))
  }
}
