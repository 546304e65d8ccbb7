package repro.sampling

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.datalog._
import repro.prov.DerivationOps

/** Batch sampling of why-not (and why) provenance (paper §5).
  *
  * The sampling pipeline is compiled entirely into a Catalyst plan:
  *
  *  - `Q_X`  — per unbound variable, `n_OS` values drawn uniformly with
  *    replacement from the variable's domain, keyed by a zip id (the
  *    paper's `#_id(SAMPLE_nOS(σ_θX(D_A1 ∪ …)))`). The SAMPLE operator is
  *    realized as an equi-join between `range(n_OS)` with a deterministic
  *    hash index and the `row_number`-indexed domain, so it stays a pure
  *    relational plan and is reproducible from the seed.
  *  - `Q_bind` — natural join of the `Q_X` on the zip id + `θ_join`.
  *  - `Q_der`  — anti-join against σ_t(Q) (shared with the exact branch).
  *  - `Q_sample` — outer-join goal annotation + δ.
  *
  * `n_OS` comes from [[OverSampling]] so that with probability `P_success`
  * at least `n_S` draws survive both `θ_join` and the missing-answer filter.
  */
object BatchSampler {

  /** Tuning knobs for one sampling run. */
  final case class Config(
      nS: Int = 1000,
      pSuccess: Double = 0.999,
      seed: Long = 42L,
      nOSCap: Long = 2_000_000L,
      /** A why-not binding space of at most `fullEnumFactor * nS` is
        * enumerated exactly instead of sampled — cheaper and exact.
        */
      fullEnumFactor: Double = 4.0,
  )

  /** The sample of one rule's provenance plus the estimates the summarizer
    * needs downstream.
    *
    * @param sample       annotated derivations (unbound-var cols + g cols), cached
    * @param sampleCount  |sample| (≤ nS; the denominator of cp estimates)
    * @param nOS          over-sampling size used (0 unless why-not was sampled)
    * @param provEstimate estimated |Prov_r(Φ)|, the row count when exact —
    *                     used to weight rules of a union when merging their
    *                     patterns (paper §5.2 "Queries With Multiple Rules")
    * @param exact        true when the sample IS the full provenance
    */
  final case class RuleSample(
      rule: Rule,
      unified: Unify.Unified,
      sample: DataFrame,
      varCols: Seq[String],
      goalColNames: Seq[String],
      sampleCount: Long,
      nOS: Long,
      provEstimate: Double,
      exact: Boolean,
  )

  /** `#_id(SAMPLE_n(dom))`: n values drawn with replacement, zip-keyed by
    * `__sid`. Deterministic in `seed`.
    */
  def sampleWithReplacement(
      spark: SparkSession,
      dom: DataFrame,
      domCount: Long,
      n: Long,
      seed: Long,
      asName: String,
  ): DataFrame = {
    require(domCount > 0, s"empty domain for $asName")
    val indexed = dom
      .withColumn("__rid", row_number().over(Window.orderBy(dom.columns.head)))
    val picks = spark
      .range(n)
      .select(
        col("id").as("__sid"),
        (pmod(xxhash64(col("id"), lit(seed)), lit(domCount)) + 1).as("__rid"),
      )
    picks
      .join(indexed, "__rid")
      .select(col("__sid"), col(dom.columns.head).as(asName))
  }

  /** Deterministically keep at most `n` rows of an annotated-derivation
    * DataFrame (uniform given the upstream sample is uniform).
    */
  def takeN(df: DataFrame, n: Long, seed: Long): DataFrame = {
    val cols = df.columns.map(col).toSeq
    df.orderBy(xxhash64(cols :+ lit(seed): _*)).limit(n.toInt)
  }

  /** Every derivation, never a sample: the paper's FULL baseline (§9.1)
    * and the ground truth of tests. Why-not cross-joins the complete
    * per-variable domains, so it is feasible only for small domains.
    */
  val Exact: Config = Config(nS = Int.MaxValue, fullEnumFactor = Double.MaxValue)

  /** The annotated derivations contributed by `rule` to question `pq`
    * (paper §4–§5), exact or sampled: columns = unbound variables of the
    * unified rule + `g0..g(m-1)`. The rule is unified with the p-tuple and
    * its ground comparisons are checked once; then one branch runs:
    *
    *  - ground rule (no unbound variable): its one derivation, exact;
    *  - why: the successful derivations are the satisfying valuations of
    *    the body (PUG instrumentation, §4), every goal T; exact when there
    *    are at most `n_S`, else `n_S` of them kept uniformly;
    *  - why-not: the domain sizes decide. A binding space of at most
    *    `fullEnumFactor * n_S` is enumerated by cross-joining the domains;
    *    a larger one is sampled (`Q_X`, `Q_bind`), with `n_OS` from
    *    [[OverSampling]]. Both then run `Q_der` and goal annotation.
    *
    * An exact sample reports its row count as `provEstimate`. Returns None
    * when the rule contributes no derivation: head clash, violated ground
    * comparison, empty domain, or no row left. Only the returned sample
    * stays cached.
    */
  def sample(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config,
  ): Option[RuleSample] = {
    val t = pq.tuple
    val u = Unify.unify(rule, t) match {
      case Some(u) if DerivationOps.groundComparisonsHold(u.rule) => u
      case _                                                      => return None
    }
    val varCols  = u.unboundVars.map(_.name)
    val goalCols = DerivationOps.goalCols(u.rule.atoms.size)

    /** Cache and count `df`; None, with nothing left cached, when it is empty. */
    def cached(df: DataFrame): Option[(DataFrame, Long)] = {
      val s = df.cache()
      val c = try s.count() catch { case e: Throwable => s.unpersist(); throw e }
      if (c == 0) { s.unpersist(); None } else Some((s, c))
    }
    def sampled(df: DataFrame, nOS: Long, provEstimate: Double): Option[RuleSample] =
      cached(df).map { case (s, c) =>
        RuleSample(rule, u, s, varCols, goalCols, c, nOS, provEstimate, exact = false)
      }
    def exactly(df: DataFrame): Option[RuleSample] =
      cached(df).map { case (s, c) =>
        RuleSample(rule, u, s, varCols, goalCols, c, 0L, c.toDouble, exact = true)
      }
    // Q_der + annotation: drop bindings that derive an existing answer.
    def whynotDerivations(bound: DataFrame): DataFrame = DerivationOps.annotate(
      DerivationOps.removeExisting(bound, program, catalog, t, u.rule), u.rule, catalog)

    if (u.unboundVars.isEmpty)
      return exactly(DerivationOps.groundDerivation(spark, program, u.rule, catalog, t, pq.qtype))

    if (pq.qtype == Why) {
      val all = DatalogEval.bindings(u.rule, catalog)
        .select(varCols.map(col) ++ goalCols.map(g => lit(true).as(g)): _*)
      return exactly(all).flatMap { whole =>
        if (whole.sampleCount <= cfg.nS) Some(whole)
        else
          try sampled(takeN(whole.sample, cfg.nS, cfg.seed), 0L, whole.sampleCount.toDouble)
          finally whole.sample.unpersist()
      }
    }

    // Domain sizes drive |A(Q,D,t)| and the exact-versus-sampled choice.
    val domains = u.unboundVars.map { v =>
      val d = DerivationOps.varDomain(u.rule, v, catalog).cache()
      (v, d, d.count())
    }
    try {
      val spaceSize = domains.map(_._3.toDouble).product
      if (domains.exists(_._3 == 0L)) None
      else if (spaceSize <= cfg.fullEnumFactor * cfg.nS)
        // Small space: enumerate exactly instead of sampling. (A small
        // provenance inside a huge space must still be sampled — enumeration
        // cost is O(spaceSize), not O(provenance).)
        exactly(whynotDerivations(
          DerivationOps.applyJoinComparisons(domains.map(_._2).reduce(_.crossJoin(_)), u.rule)))
      else {
        val domSize = domains.map { case (v, _, c) => v -> c }.toMap

        // p_notProv: fraction of the space deriving an existing answer matching t
        // (paper §5.3). #derivations per existing answer = Π over existential
        // unbound vars of |D_X|, so p_notProv = nExisting / Π over head-unbound
        // vars of |D_X|.
        val headUnbound = u.rule.headArgs.collect { case v: Var => v }.distinct
        val nExisting   = DatalogEval.restrictedAnswers(program, catalog, t).count()
        val headSpace   = headUnbound.map(v => domSize(v).toDouble).product
        val pNotProv =
          if (headUnbound.isEmpty) { if (nExisting > 0) 1.0 else 0.0 }
          else math.min(1.0, nExisting / headSpace)

        // θ_join selectivity (paper §5.3 "Handling Predicates").
        val sel = u.rule.comparisons.filter(_.isVarVar).map { c =>
          val (l, r) = (c.left.asInstanceOf[Var], c.right.asInstanceOf[Var])
          OverSampling.cmpSelectivity(c.op, domSize(l), domSize(r))
        }.product

        val pDraw = sel * (1.0 - pNotProv)
        if (pDraw <= 0.0) None
        else {
          val nOS = OverSampling.minOverSample(cfg.nS, pDraw, cfg.pSuccess, cfg.nOSCap)
          // Q_X + Q_bind: zip the per-variable samples, apply θ_join.
          val qxs = domains.zipWithIndex.map { case ((v, d, c), i) =>
            sampleWithReplacement(spark, d, c, nOS, cfg.seed + 7919L * (i + 1), v.name)
          }
          val qbind = qxs.reduce(_.join(_, "__sid"))
          val bound = DerivationOps.applyJoinComparisons(qbind, u.rule).drop("__sid")
          sampled(takeN(whynotDerivations(bound).distinct(), cfg.nS, cfg.seed), nOS, spaceSize * pDraw)
        }
      }
    } finally domains.foreach(_._2.unpersist())
  }

  /** [[sample]] for the why-not question `(t, Whynot)`. */
  def whynotSample(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      t: PTuple,
      cfg: Config,
  ): Option[RuleSample] = sample(spark, program, rule, catalog, ProvQuestion(t, Whynot), cfg)

  /** [[sample]] for the why question `(t, Why)`. */
  def whySample(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      t: PTuple,
      cfg: Config,
  ): Option[RuleSample] = sample(spark, program, rule, catalog, ProvQuestion(t, Why), cfg)
}
