package repro.prov

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{BooleanType, DataType, StructField, StructType}
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
    // the sorted array of `domainValues` run in one task of the one
    // `collectArrays` job, with no exchange (one shuffle stage per domain
    // otherwise), and the CartesianProduct of `crossSpace`, which multiplies
    // its inputs' partition counts, has one partition, not 8^n.
    val dom = union.where(col(v.name).isNotNull).coalesce(1).distinct()
    thetaX(unified, v).foldLeft(dom)((d, c) => d.where(DatalogEval.comparisonCol(c)))
  }

  /** θ_X: the comparisons of `v` with a constant, pushed into its domain. */
  private def thetaX(rule: Rule, v: Var) = rule.comparisons.filter(c => c.isVarConst && c.variables == Vector(v))

  /** What [[varDomain]] reads for `v` in `unified`: the variable, the set of
    * (relation, position) it binds and its θ_X. One key, one domain: it is a
    * sorted distinct union whatever the order of the union.
    */
  def domainKey(unified: Rule, v: Var): (Var, Set[(String, Int)], Set[Comparison]) =
    (v, unified.occurrences(v).map(o => (unified.atoms(o._1).relation, o._2)).toSet, thetaX(unified, v).toSet)

  /** `domain` (a one-column frame, as [[varDomain]] gives it) as one row
    * holding its values in Spark's ascending order: the order
    * [[valuations]] indexes into. The sort runs in Spark, not on the driver,
    * because Spark orders strings by their UTF-8 bytes and Java by their
    * UTF-16 units. A frame for [[collectArrays]].
    */
  def domainValues(domain: DataFrame): DataFrame =
    domain.select(sort_array(collect_list(col(domain.columns.head))))

  /** What [[lookupRows]] reads of `atom`, whose variables have the
    * derivation types `types`: the atom without its negation, and its
    * variables' types in their order. One key, one set of rows.
    */
  def lookupKey(atom: Atom, types: Map[String, DataType]): (Atom, Seq[DataType]) =
    (atom.copy(negated = false), atom.variables.map(v => types(v.name)))

  /** The bindings of `atom` in `catalog` as lookup keys: with no NULL (no
    * derivation value is NULL, and a NULL key joins nothing), its variables
    * cast to `types`, their derivation columns' types in variable order, so
    * that equal values are equal on the driver as under the join's coercion.
    * A ground atom's key is the empty row, there iff its tuple exists.
    */
  def lookupRows(atom: Atom, catalog: Catalog, types: Seq[DataType]): DataFrame = {
    val b = DatalogEval.atomBindings(atom.copy(negated = false), catalog)
    b.where(b.columns.map(col(_).isNotNull).foldLeft(lit(true))(_ && _))
      .select(b.columns.toSeq.zip(types).map { case (v, t) => col(v).cast(t).as(v) }: _*)
  }

  /** The goal markers of `atom`: its distinct [[lookupRows]], as one row
    * holding them as one array of rows. Single partition, taken before the
    * δ, as in [[varDomain]]. A frame for [[collectArrays]].
    */
  def goalMarkers(atom: Atom, catalog: Catalog, types: Seq[DataType]): DataFrame = {
    val m = lookupRows(atom, catalog, types).coalesce(1).distinct()
    m.select(collect_list(struct(m.columns.map(col).toSeq: _*)))
  }

  /** The arrays of `frames`, aggregates of one row holding one array such as
    * [[domainValues]] and [[goalMarkers]] give, in the order of `frames`,
    * collected in one Spark job with one task per frame. The caller passes
    * each distinct frame once. No frame, no job.
    */
  def collectArrays(frames: Seq[DataFrame]): Seq[Array[Any]] =
    if (frames.isEmpty) Vector.empty else frames.head.sparkSession.sparkContext.union(frames.map(_.rdd))
      .collect().toVector.map(_.getSeq[Any](0).toArray)

  /** `n` valuations over the broadcast `domains` (as [[collectArrays]]
    * gives them for [[domainValues]]), one `schema` column each: valuation
    * `id` of `range(n)` takes from domain `i` its value at index
    * `pick(id, i)`. The plan has no join, exchange or driver-side relation
    * of `n` rows; the caller owns the broadcast.
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
    * per unbound variable), as relational operators: `θ_join`, then `Q_der`
    * as the negated goal `¬head` over `answers` (σ_t(Q),
    * [[DatalogEval.restrictedAnswers]], columns `c0..`), the
    * [[DatalogEval.antiJoin]] of any negated goal: a head constant left open
    * by the p-tuple filters the answers, and a ground head joins without a
    * key. Then goal annotation as outer joins (paper §5.2). A plan built
    * without a Spark job: FULL runs it over [[crossSpace]], and it is the
    * reference for [[lookupDerivations]], which the batch sampler runs
    * instead.
    */
  def whynotDerivations(space: DataFrame, answers: DataFrame, catalog: Catalog, unified: Rule): DataFrame = {
    val bound = applyJoinComparisons(space, unified)
    annotate(DatalogEval.antiJoin(bound, unified.head, Catalog(unified.headPred -> answers)), unified, catalog)
  }

  /** What [[lookupDerivations]] reads of a rule, broadcast: the
    * [[lookupRows]] of its head atom over σ_t(Q), and per body atom its
    * [[goalMarkers]], each row keyed in the order of the atom's variables.
    * A ground head's or atom's key is the empty row.
    */
  final case class Lookups(head: Broadcast[Set[Row]], markers: Vector[Broadcast[Set[Row]]])

  /** [[whynotDerivations]] with `Q_der` and goal annotation as lookups in
    * the broadcasts of `lookups`, in one map over the space after the
    * Catalyst `θ_join`: a row whose values of the head's distinct variables
    * are one of the head's keys is dropped, and goal flag `g_i` is whether
    * the values of atom `i`'s variables are one of its markers, inverted for
    * a negated atom. The plan has no join or exchange; the caller owns the
    * broadcasts.
    */
  def lookupDerivations(space: DataFrame, unified: Rule, lookups: Lookups): DataFrame = {
    val bound   = applyJoinComparisons(space, unified)
    val at      = bound.columns.zipWithIndex.toMap
    val head +: atoms = (unified.head +: unified.atoms).map(_.variables.map(v => at(v.name)).toArray)
    val negated = unified.atoms.map(_.negated).toArray
    val schema  = StructType(bound.schema.fields ++
      goalCols(atoms.length).map(StructField(_, BooleanType, nullable = false)))
    bound.mapPartitions { (rows: Iterator[Row]) =>
      val (existing, markers) = (lookups.head.value, lookups.markers.map(_.value))
      def key(r: Row, positions: Array[Int]) = Row.fromSeq(positions.toSeq.map(r.get))
      rows.filterNot(r => existing.contains(key(r, head))).map { r =>
        Row.fromSeq(r.toSeq ++ atoms.indices.map(i => markers(i).contains(key(r, atoms(i))) != negated(i)))
      }
    }(Encoders.row(schema))
  }

  /** Apply every comparison that [[varDomain]] did not push below: the
    * variable–variable ones (`θ_join`, paper §5.2) and the constant–constant
    * ones unification leaves behind, which Catalyst folds — a violated one
    * empties the plan.
    */
  private def applyJoinComparisons(bind: DataFrame, unified: Rule): DataFrame =
    unified.comparisons.filterNot(_.isVarConst)
      .foldLeft(bind)((df, c) => df.where(DatalogEval.comparisonCol(c)))

  /** Relational `Q_goals`/`Q_sample` annotation (paper §5.2 step 3):
    * left-outer join each body atom's (deduplicated) variable bindings on
    * its variables and derive the boolean goal flag from marker existence —
    * inverted for negated goals. A ground atom's bindings have no column:
    * one row if the tuple exists, none otherwise, joined to every derivation
    * without a key.
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
