package repro.prov

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.datalog._

/** Shared relational building blocks over derivation spaces.
  *
  * A derivation DataFrame for a unified rule `r_t` has one column per
  * unbound variable (named after it); an *annotated* derivation DataFrame
  * additionally has boolean columns `g0..g(m-1)`, one per body atom, in body
  * order (paper Def. 1). Both the batch sampler (§5.2) and the FULL
  * enumeration baseline build on these pieces.
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
    // θ_X: constant comparisons involving only this variable.
    unified.comparisons.filter(c => c.isVarConst && c.variables == Vector(v))
      .foreach(c => dom = dom.where(DatalogEval.comparisonCol(c)))
    // Single partition: domains are small, and a CartesianProduct (the FULL
    // enumeration cross-joins them with broadcast joins disabled) multiplies
    // its inputs' partition counts — 8^n partitions otherwise.
    dom.coalesce(1)
  }

  /** The derivation space of `unified` enumerated in full: the cross
    * product of its variables' `domains`. A rule with no unbound variable
    * has one valuation, the empty one: a frame of one row and no columns.
    */
  def fullSpace(spark: SparkSession, domains: Seq[DataFrame]): DataFrame =
    domains.reduceOption(_.crossJoin(_)).getOrElse(spark.range(1).drop("id"))

  /** The why-not derivations of `unified` in a derivation space (one column
    * per unbound variable): `θ_join`, then `Q_der` against `answers`
    * (σ_t(Q), [[DatalogEval.restrictedAnswers]]), then goal annotation
    * (paper §5.2). FULL feeds it [[fullSpace]], the batch sampler its `Q_X`
    * draws.
    */
  def whynotDerivations(
      space: DataFrame,
      answers: DataFrame,
      catalog: Catalog,
      unified: Rule,
  ): DataFrame = {
    val bound = applyJoinComparisons(space, unified)
    annotate(removeExisting(bound, answers, unified), unified, catalog)
  }

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
    * answer, by anti-joining against `answers` (σ_t(Q), columns `c0..`) on
    * the head variables that the p-tuple left unbound.
    */
  def removeExisting(bind: DataFrame, answers: DataFrame, unified: Rule): DataFrame = {
    val headVarPos = unified.headArgs.zipWithIndex.collect { case (v: Var, i) => (v, i) }
    if (headVarPos.isEmpty) {
      // Fully ground head: it either exists (all derivations removed) or not.
      bind.join(answers, lit(true), "left_anti")
    } else {
      val cond = headVarPos
        .map { case (v, i) => bind(v.name) === answers(s"c$i") }
        .reduce(_ && _)
      bind.join(answers, cond, "left_anti")
    }
  }

  /** `Q_goals`/`Q_sample` annotation step (paper §5.2 step 3): left-outer
    * join each body atom's (deduplicated) variable bindings and derive the
    * boolean goal flag from marker existence — inverted for negated goals.
    * Ground atoms (no variables after unification) are checked once,
    * client-side. Output: input columns plus `g0..g(m-1)`.
    */
  def annotate(bind: DataFrame, unified: Rule, catalog: Catalog): DataFrame = {
    var df = bind
    val goalExprs = unified.atoms.zipWithIndex.map { case (atom, i) =>
      val marker = s"__h$i"
      if (atom.variables.isEmpty) {
        // Ground goal: single existence check, constant flag for every row.
        val exists = !DatalogEval.atomBindings(atom.copy(negated = false), catalog).isEmpty
        lit(exists != atom.negated).as(s"g$i")
      } else {
        val m = DatalogEval.atomBindings(atom.copy(negated = false), catalog)
          .distinct()
          .withColumn(marker, lit(1))
        df = df.join(m, atom.variables.map(_.name), "left_outer")
        val flag = if (atom.negated) col(marker).isNull else col(marker).isNotNull
        flag.as(s"g$i")
      }
    }
    val keep = bind.columns.map(col).toSeq ++ goalExprs
    df.select(keep: _*)
  }
}
