package repro.prov

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
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
    // Single partition, taken before the δ: domains are small, so the δ and
    // the sorted collect of `collectDomains` run without an exchange (one
    // shuffle stage per domain otherwise), and the CartesianProduct of
    // `crossSpace`, which multiplies its inputs' partition counts, has one
    // partition, not 8^n.
    val dom = union.where(col(v.name).isNotNull).coalesce(1).distinct()
    // θ_X: constant comparisons involving only this variable.
    val thetaX = unified.comparisons.filter(c => c.isVarConst && c.variables == Vector(v))
    thetaX.foldLeft(dom)((d, c) => d.where(DatalogEval.comparisonCol(c)))
  }

  /** The values of every one of `domains` (one-column frames, as
    * [[varDomain]] gives them), collected in one Spark job, each in Spark's
    * ascending order: the order [[valuations]] indexes into. Frames with the
    * same plan (`DataFrame.sameSemantics`), such as the domains the rules of
    * a union share, are collected once and get the same array. The sort runs
    * in Spark, not on the driver, because Spark orders strings by their
    * UTF-8 bytes and Java by their UTF-16 units. No domain, no job.
    */
  def collectDomains(domains: Seq[DataFrame]): Seq[Array[Any]] = {
    val distinct = domains.foldLeft(Vector.empty[DataFrame]) { (ds, d) =>
      if (ds.exists(_.sameSemantics(d))) ds else ds :+ d
    }
    val values = if (distinct.isEmpty) Vector.empty[Array[Any]] else
      distinct.map(d => d.select(sort_array(collect_list(col(d.columns.head)))))
        .reduce(_.crossJoin(_)).collect().head.toSeq.map(_.asInstanceOf[collection.Seq[Any]].toArray)
    domains.map(d => values(distinct.indexWhere(_.sameSemantics(d))))
  }

  /** `n` valuations over the broadcast `domains` (as [[collectDomains]]
    * gives them), one `schema` column each: valuation `id` of `range(n)`
    * takes from domain `i` its value at index `pick(id, i)`. The plan has
    * no join, exchange or driver-side relation of `n` rows; the caller owns
    * the broadcast.
    */
  def valuations(spark: SparkSession, schema: StructType, domains: Broadcast[Seq[Array[Any]]], n: Long)
                (pick: (Long, Int) => Int): DataFrame =
    spark.range(n).mapPartitions { (ids: Iterator[java.lang.Long]) =>
      val arrays = domains.value.toArray
      ids.map(id => Row.fromSeq(arrays.indices.map(i => arrays(i)(pick(id, i)))))
    }(Encoders.row(schema))

  /** The derivation space enumerated in full: the valuations of
    * `range(Π|D_i|)`, valuation `id` read as a mixed-radix number whose
    * digit `i` indexes domain `i` (the last domain's digit is the lowest).
    * A rule with no unbound variable has one valuation, the empty one; an
    * empty domain leaves none.
    */
  def fullSpace(spark: SparkSession, schema: StructType, domains: Broadcast[Seq[Array[Any]]]): DataFrame = {
    val sizes = domains.value.map(_.length.toLong).toArray
    val size  = sizes.foldLeft(BigInt(1))(_ * _)
    require(size <= Long.MaxValue,
      s"the space over ${schema.fieldNames.mkString(", ")} has $size valuations, more than a range can number")
    val strides = sizes.scanRight(1L)(_ * _).tail
    valuations(spark, schema, domains, size.toLong)((id, i) => (id / strides(i) % sizes(i)).toInt)
  }

  /** The derivation space as the cross product of the domain frames, a
    * plan built without a Spark job: the space of [[repro.prov.FullWhyNot]].
    * A rule with no unbound variable has one valuation, the empty one: a
    * frame of one row and no columns.
    */
  def crossSpace(spark: SparkSession, domains: Seq[DataFrame]): DataFrame =
    domains.reduceOption(_.crossJoin(_)).getOrElse(spark.range(1).drop("id"))

  /** The why-not derivations of `unified` in a derivation space (one column
    * per unbound variable): `θ_join`, then `Q_der` against `answers`
    * (σ_t(Q), [[DatalogEval.restrictedAnswers]]), then goal annotation
    * (paper §5.2). FULL feeds it [[crossSpace]], the batch sampler the
    * [[fullSpace]] of a small space or its `Q_X` draws.
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
