package repro.sampling

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.datalog._
import repro.prov.DerivationOps
import scala.collection.mutable

/** Batch sampling of why-not (and why) provenance (paper §5).
  *
  * The sampling pipeline is compiled entirely into a Catalyst plan:
  *
  *  - `Q_X` + `Q_bind` — `n_OS` hash indexes per unbound variable, keyed
  *    by (variable index, `__rid`), meet the tagged `row_number`-indexed
  *    domains in one equi-join; one group by draw id assembles the
  *    bindings (the paper's `#_id(SAMPLE_nOS(σ_θX(D_A1 ∪ …)))`, reproducible
  *    from the seed), and `θ_join` filters them.
  *  - `Q_der`  — anti-join against σ_t(Q), skipped when σ_t(Q) is empty.
  *  - `Q_sample` — outer-join goal annotation + δ.
  *
  * The rules of a question share one scope that builds σ_t(Q), each
  * distinct variable domain (all sizes from one action) and each goal
  * marker once; inputs read twice are cached, and all released on return.
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
    * @param achievedPSuccess `tailAtLeast(nOS, nS, p_draw)`, below the
    *                     requested `P_success` when `nOSCap` binds; 1.0
    *                     unless why-not was sampled
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
      achievedPSuccess: Double,
  )

  /** `Q_X` + `Q_bind` before `θ_join`: `n` draws with replacement from each
    * (single-column, non-empty) domain, given with its size; one row per
    * draw id `__sid`. Domain `i` is indexed by `xxhash64(id, seed +
    * 7919·(i+1)) mod |D_i| + 1`, so the draws are deterministic in `seed`.
    */
  def draw(spark: SparkSession, domains: Seq[(DataFrame, Long)], n: Long, seed: Long): DataFrame = {
    require(domains.forall(_._2 > 0), "empty domain")
    val names = domains.map(_._1.columns.head)
    val tagged = domains.zipWithIndex.map { case ((d, _), i) =>
      d.withColumn("__rid", row_number().over(Window.orderBy(names(i))).cast("long"))
        .select(lit(i).as("__var") +: col("__rid") +: names.zipWithIndex.map { case (v, j) =>
          if (i == j) col(v) else lit(null).cast(domains(j)._1.schema.head.dataType).as(v)
        }: _*)
    }.reduce(_.union(_))
    val picks = domains.zipWithIndex.map { case ((_, size), i) =>
      struct(lit(i).as("__var"),
        (pmod(xxhash64(col("id"), lit(seed + 7919L * (i + 1))), lit(size)) + 1).as("__rid"))
    }
    val values = names.map(v => first(v, ignoreNulls = true).as(v))
    spark.range(n)
      .select(col("id").as("__sid"), explode(array(picks: _*)).as("__p"))
      .select(col("__sid"), col("__p.__var").as("__var"), col("__p.__rid").as("__rid"))
      .join(tagged, Seq("__var", "__rid"))
      .groupBy("__sid").agg(values.head, values.tail: _*)
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

  /** The annotated derivations each of `rules` contributes to question `pq`
    * (paper §4–§5), exact or sampled, in rule order: columns = unbound
    * variables of the unified rule + `g0..g(m-1)`. Each rule is unified
    * with the p-tuple and its ground comparisons are checked once; then one
    * branch runs (a ground rule, one with no unbound variable, takes it too:
    * its binding space is one empty binding):
    *
    *  - why: the successful derivations are the satisfying valuations of
    *    the body (PUG instrumentation, §4), every goal T; exact when there
    *    are at most `n_S`, else `n_S` of them kept uniformly;
    *  - why-not: the domain sizes decide. A binding space of at most
    *    `fullEnumFactor * n_S` is enumerated by cross-joining the domains;
    *    a larger one is sampled ([[draw]]), with `n_OS` from
    *    [[OverSampling]]. Both then run `Q_der` and goal annotation.
    *
    * An exact sample reports its row count as `provEstimate`. A rule
    * contributes nothing on a head clash, a violated ground comparison, an
    * empty domain, or when no row is left. Only the returned samples stay
    * cached, also when this throws.
    */
  def sampleRules(
      spark: SparkSession,
      program: Program,
      rules: Seq[Rule],
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config,
  ): Vector[RuleSample] = {
    val unified = rules.flatMap(r =>
      Unify.unify(r, pq.tuple).filter(u => DerivationOps.groundComparisonsHold(u.rule)).map(r -> _))
    val shared = mutable.Buffer.empty[DataFrame] // the question's inputs
    val kept   = mutable.Buffer.empty[RuleSample]
    def share(df: DataFrame): DataFrame = { shared += df; df.cache() }
    /** Cache, count and keep `df` as `r`'s sample unless it is empty. */
    def keep(r: Rule, u: Unify.Unified, df: DataFrame, nOS: Long = 0L,
             estimate: Option[Double] = None, pAchieved: Double = 1.0): Option[RuleSample] = {
      val s = df.cache()
      val c = try s.count() catch { case e: Throwable => s.unpersist(); throw e }
      if (c == 0) { s.unpersist(); None }
      else Some(RuleSample(r, u, s, u.unboundVars.map(_.name), DerivationOps.goalCols(u.rule.atoms.size),
        c, nOS, estimate.getOrElse(c.toDouble), estimate.isEmpty, pAchieved)).map { rs => kept += rs; rs }
    }
    try {
      // Why-not: σ_t(Q) and each distinct domain, keyed by its definition,
      // built once; all their sizes come from one aggregate action.
      val inputs = mutable.LinkedHashMap.empty[Any, DataFrame]
      if (pq.qtype == Whynot && unified.nonEmpty)
        inputs("σ_t(Q)") = share(DatalogEval.restrictedAnswers(program, catalog, pq.tuple))
      for ((_, u) <- unified if pq.qtype == Whynot; v <- u.unboundVars)
        inputs.getOrElseUpdate(DerivationOps.domainKey(u.rule, v), share(DerivationOps.varDomain(u.rule, v, catalog)))
      val keys = inputs.keys.toVector
      val sizes =
        if (keys.isEmpty) Map.empty[Any, Long]
        else inputs.values.zipWithIndex.map { case (d, i) => d.select(lit(i).as("__i")) }.reduce(_.union(_))
          .groupBy("__i").count().collect().map(r => keys(r.getInt(0)) -> r.getLong(1)).toMap
      val nExisting = sizes.getOrElse("σ_t(Q)", 0L)
      def domain(u: Unify.Unified, v: Var): (DataFrame, Long) = {
        val k = DerivationOps.domainKey(u.rule, v)
        (inputs(k).toDF(v.name), sizes.getOrElse(k, 0L))
      }

      // Per why-not rule, its bindings before θ_join and Q_der, with n_OS,
      // p_draw and the provenance estimate (None when enumerated exactly).
      val bound = unified.filter(_ => pq.qtype == Whynot).flatMap { case (_, u) =>
        val ds        = u.unboundVars.map(domain(u, _))
        val domSize   = u.unboundVars.zip(ds.map(_._2)).toMap
        val spaceSize = ds.map(_._2.toDouble).product
        if (ds.exists(_._2 == 0L)) None
        else if (spaceSize <= cfg.fullEnumFactor * cfg.nS)
          // Small space: enumerate exactly instead of sampling. (A small
          // provenance inside a huge space must still be sampled — enumeration
          // cost is O(spaceSize), not O(provenance).) A ground rule's space
          // is one empty binding.
          Some(u -> (ds.map(_._1).reduceOption(_.crossJoin(_))
            .getOrElse(spark.range(0, 1, 1, 1).drop("id")), 0L, 1.0, None))
        else {
          // p_notProv: fraction of the space deriving an existing answer matching t
          // (paper §5.3). #derivations per existing answer = Π over existential
          // unbound vars of |D_X|, so p_notProv = nExisting / Π over head-unbound
          // vars of |D_X|.
          val headUnbound = u.rule.headArgs.collect { case v: Var => v }.distinct
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
            Some(u -> (draw(spark, ds, nOS, cfg.seed).drop("__sid"), nOS, pDraw, Some(spaceSize * pDraw)))
          }
        }
      }.toMap

      // Goal markers (distinct bindings of each positive body atom), shared
      // by the rules of a union; cached when read twice.
      val markers = bound.keys.toSeq
        .flatMap(_.rule.atoms.map(_.copy(negated = false)))
        .groupBy(identity).map { case (a, uses) =>
          val m = DatalogEval.atomBindings(a, catalog).distinct()
          a -> (if (uses.size > 1) share(m) else m)
        }

      unified.foreach { case (r, u) =>
        if (pq.qtype == Why)
          keep(r, u, DatalogEval.bindings(u.rule, catalog).select(u.unboundVars.map(v => col(v.name)) ++
            DerivationOps.goalCols(u.rule.atoms.size).map(g => lit(true).as(g)): _*))
            .filter(_.sampleCount > cfg.nS).foreach { whole => // cut to n_S
              kept -= whole; shared += whole.sample
              keep(r, u, takeN(whole.sample, cfg.nS, cfg.seed), estimate = Some(whole.sampleCount.toDouble))
            }
        else bound.get(u).foreach { case (b, nOS, pDraw, estimate) =>
          // Q_der (skipped when σ_t(Q) is empty) + annotation.
          val joined = DerivationOps.applyJoinComparisons(b, u.rule)
          val der = DerivationOps.annotate(
            if (nExisting == 0) joined else DerivationOps.removeExisting(joined, inputs("σ_t(Q)"), u.rule),
            u.rule, markers)
          if (estimate.isEmpty) keep(r, u, der)
          else keep(r, u, takeN(der.distinct(), cfg.nS, cfg.seed), nOS, estimate,
            OverSampling.tailAtLeast(nOS, cfg.nS, pDraw))
        }
      }
      kept.toVector
    } catch { case e: Throwable => kept.foreach(_.sample.unpersist()); throw e }
    finally shared.foreach(_.unpersist())
  }

  /** [[sampleRules]] for one rule. */
  def sample(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config,
  ): Option[RuleSample] = sampleRules(spark, program, Seq(rule), catalog, pq, cfg).headOption

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
