package repro.prov

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.datalog._

/** Shared relational building blocks over derivation spaces.
  *
  * A derivation DataFrame for a unified rule `r_t` has one column per
  * unbound variable (named after it); an *annotated* derivation DataFrame
  * additionally has boolean columns `g0..g(m-1)`, one per body atom, in body
  * order (paper Def. 1). `BatchSampler.sample` builds every derivation
  * set, exact or sampled, from these pieces.
  */
object DerivationOps {

  /** Names of the goal-annotation columns for a rule with `m` atoms. */
  def goalCols(m: Int): Seq[String] = (0 until m).map(i => s"g$i")

  /** The paper's per-variable domain: the union of the domains of all
    * attributes the variable is bound to (`attrs(X)`), with predicates that
    * compare the variable to a constant pushed below (paper §5.2, `Q_X`
    * before SAMPLE). Single column named after the variable.
    */
  def varDomain(unified: Rule, v: Var, catalog: Catalog): DataFrame = {
    val occ = unified.occurrences(v)
    require(occ.nonEmpty, s"variable $v has no relation occurrence in ${unified.name}")
    val doms = occ.map { case (ai, ti) =>
      catalog.domain(unified.atoms(ai).relation, ti)
    }
    var dom = doms.reduce(_.union(_)).distinct().toDF(v.name)
    pushed(unified, v).foreach(c => dom = dom.where(DatalogEval.comparisonCol(c)))
    // Single partition: domains are small, and a CartesianProduct (the FULL
    // enumeration cross-joins them with broadcast joins disabled) multiplies
    // its inputs' partition counts — 8^n partitions otherwise.
    dom.coalesce(1)
  }

  /** [[varDomain]]'s definition apart from the variable's name: the
    * (relation, position) pairs it occurs at and its pushed comparisons.
    * Variables with equal keys have equal domains.
    */
  def domainKey(unified: Rule, v: Var): (Set[(String, Int)], Set[Comparison]) = {
    def anon(t: Term): Term = if (t == v) Var("") else t
    (unified.occurrences(v).map { case (ai, ti) => (unified.atoms(ai).relation, ti) }.toSet,
      pushed(unified, v).map(c => Comparison(anon(c.left), c.op, anon(c.right))).toSet)
  }

  /** θ_X: the constant comparisons involving only `v`. */
  private def pushed(unified: Rule, v: Var): Vector[Comparison] =
    unified.comparisons.filter(c => c.isVarConst && c.variables == Vector(v))

  /** Apply variable–variable comparisons (`θ_join`, paper §5.2) and any
    * comparisons not already pushed into the per-variable domains.
    */
  def applyJoinComparisons(bind: DataFrame, unified: Rule): DataFrame =
    unified.comparisons.filter(_.isVarVar)
      .foldLeft(bind)((df, c) => df.where(DatalogEval.comparisonCol(c)))

  /** Statically evaluate constant–constant comparisons left behind by
    * unification. Returns false when any is violated (rule contributes
    * nothing to the provenance of the question).
    */
  def groundComparisonsHold(unified: Rule): Boolean =
    unified.comparisons.forall { c =>
      (c.left, c.right) match {
        case (Const(a), Const(b)) => evalCmp(a, c.op, b)
        case _                    => true
      }
    }

  private def evalCmp(a: Any, op: CmpOp, b: Any): Boolean = {
    val cmpVal: Int = (a, b) match {
      case (x: Number, y: Number) => java.lang.Double.compare(x.doubleValue, y.doubleValue)
      case _                      => String.valueOf(a).compareTo(String.valueOf(b))
    }
    op match {
      case CmpOp.Lt  => cmpVal < 0
      case CmpOp.Leq => cmpVal <= 0
      case CmpOp.Neq => cmpVal != 0
      case CmpOp.Geq => cmpVal >= 0
      case CmpOp.Gt  => cmpVal > 0
      case CmpOp.Eq  => cmpVal == 0
    }
  }

  /** `Q_der` (paper §5.2 step 2): drop derivations whose head is an existing
    * answer, by anti-joining against σ_t(Q) (`answers`, columns `c0..`) on
    * the head variables that the p-tuple left unbound.
    */
  def removeExisting(bind: DataFrame, answers: DataFrame, unified: Rule): DataFrame = {
    val headVarPos = unified.headArgs.zipWithIndex.collect { case (v: Var, i) => (v, i) }
    // A fully ground head either exists (all derivations removed) or not.
    val cond = headVarPos.map { case (v, i) => bind(v.name) === answers(s"c$i") }
      .foldLeft(lit(true))(_ && _)
    bind.join(answers, cond, "left_anti")
  }

  /** `Q_goals`/`Q_sample` annotation step (paper §5.2 step 3): left-outer
    * join each body atom's marker (the distinct bindings of its positive
    * form, looked up by that form) on the atom's variables and derive the
    * boolean goal flag from marker existence — inverted for negated goals.
    * A ground atom's marker has no column and at most one row, so its join
    * is keyless. Output: input columns plus `g0..`.
    */
  def annotate(bind: DataFrame, unified: Rule, markers: Atom => DataFrame): DataFrame = {
    var df = bind
    val goalExprs = unified.atoms.zipWithIndex.map { case (atom, i) =>
      val m = s"__h$i"
      df = df.join(markers(atom.copy(negated = false)).withColumn(m, lit(1)),
        atom.variables.map(_.name), "left_outer")
      val flag = if (atom.negated) col(m).isNull else col(m).isNotNull
      flag.as(s"g$i")
    }
    val keep = bind.columns.map(col).toSeq ++ goalExprs
    df.select(keep: _*)
  }
}
