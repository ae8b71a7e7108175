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
    * before SAMPLE). Single column named after the variable. The only place
    * a domain loses its NULLs and duplicates: once, over the whole union.
    */
  def varDomain(unified: Rule, v: Var, catalog: Catalog): DataFrame = {
    val occ = unified.occurrences(v)
    require(occ.nonEmpty, s"variable $v has no relation occurrence in ${unified.name}")
    val union = occ.map { case (ai, ti) => catalog.domain(unified.atoms(ai).relation, ti) }
      .reduce(_.union(_)).toDF(v.name)
    val dom = union.where(col(v.name).isNotNull).distinct()
    // θ_X: constant comparisons involving only this variable.
    val thetaX = unified.comparisons.filter(c => c.isVarConst && c.variables == Vector(v))
    // Single partition: domains are small, and a CartesianProduct (the FULL
    // enumeration cross-joins them with broadcast joins disabled) multiplies
    // its inputs' partition counts — 8^n partitions otherwise.
    thetaX.foldLeft(dom)((d, c) => d.where(DatalogEval.comparisonCol(c))).coalesce(1)
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

  /** Apply every comparison that [[varDomain]] did not push below: the
    * variable–variable ones (`θ_join`, paper §5.2) and the constant–constant
    * ones unification leaves behind, which Catalyst folds — a violated one
    * empties the plan.
    */
  private def applyJoinComparisons(bind: DataFrame, unified: Rule): DataFrame =
    unified.comparisons.filterNot(_.isVarConst)
      .foldLeft(bind)((df, c) => df.where(DatalogEval.comparisonCol(c)))

  /** `Q_der` (paper §5.2 step 2): drop derivations whose head is an existing
    * answer, by anti-joining against `answers` (σ_t(Q), columns `c0..`) on
    * the head variables that the p-tuple left unbound. A fully ground head
    * has no such variable: the condition is `true`, and every derivation
    * goes iff the answer exists.
    */
  private def removeExisting(bind: DataFrame, answers: DataFrame, unified: Rule): DataFrame = {
    val cond = unified.headArgs.zipWithIndex
      .collect { case (v: Var, i) => bind(v.name) === answers(s"c$i") }
      .foldLeft(lit(true))(_ && _)
    bind.join(answers, cond, "left_anti")
  }

  /** `Q_goals`/`Q_sample` annotation step (paper §5.2 step 3): left-outer
    * join each body atom's (deduplicated) variable bindings on its variables
    * and derive the boolean goal flag from marker existence — inverted for
    * negated goals. A ground atom's bindings have no column: one row if the
    * tuple exists, none otherwise, joined to every derivation without a key.
    * Output: input columns plus `g0..g(m-1)`.
    */
  private def annotate(bind: DataFrame, unified: Rule, catalog: Catalog): DataFrame = {
    var df = bind
    val goalExprs = unified.atoms.zipWithIndex.map { case (atom, i) =>
      val marker = s"__h$i"
      val m = DatalogEval.atomBindings(atom.copy(negated = false), catalog)
        .distinct()
        .withColumn(marker, lit(1))
      df = df.join(m, atom.variables.map(_.name), "left_outer")
      val flag = if (atom.negated) col(marker).isNull else col(marker).isNotNull
      flag.as(s"g$i")
    }
    val keep = bind.columns.map(col).toSeq ++ goalExprs
    df.select(keep: _*)
  }
}
