package repro.datalog

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Evaluates UCQ¬< rules and programs over a [[Catalog]] as Catalyst plans.
  *
  * This is the relational substrate the paper "outsources most computation"
  * to (§4): positive goals compile to natural joins, negated goals to
  * anti-joins, comparisons to filters, and multi-rule programs to
  * union+distinct. Set semantics throughout (paper §1: duplicates are not
  * considered).
  */
object DatalogEval {

  /** Compile a term to a Column given that variable columns carry the
    * variable's name.
    */
  private def termCol(t: Term): Column = t match {
    case Var(n)   => col(n)
    case Const(v) => lit(v)
  }

  /** Compile a comparison to a boolean Column. */
  def comparisonCol(c: Comparison): Column = {
    val (l, r) = (termCol(c.left), termCol(c.right))
    c.op match {
      case CmpOp.Lt  => l < r
      case CmpOp.Leq => l <= r
      case CmpOp.Neq => l =!= r
      case CmpOp.Geq => l >= r
      case CmpOp.Gt  => l > r
      case CmpOp.Eq  => l === r
    }
  }

  /** Project a relation for one atom: constant arguments become filters,
    * repeated variables become intra-atom equality filters, and the result
    * keeps exactly one column per distinct variable, named after it.
    */
  def atomBindings(atom: Atom, catalog: Catalog): DataFrame = {
    val rel  = catalog.relation(atom.relation)
    val cols = rel.columns
    require(cols.length == atom.arity,
      s"atom $atom arity mismatch with relation (${cols.length} columns)")

    var df = rel
    // Constant positions: filter.
    atom.args.zipWithIndex.foreach {
      case (Const(v), i) => df = df.where(col(cols(i)) === lit(v))
      case _             =>
    }
    // Repeated variables: equality between first and later occurrence.
    val firstPos = scala.collection.mutable.Map.empty[Var, Int]
    atom.args.zipWithIndex.foreach {
      case (v: Var, i) =>
        firstPos.get(v) match {
          case Some(j) => df = df.where(col(cols(i)) === col(cols(j)))
          case None    => firstPos += (v -> i)
        }
      case _ =>
    }
    val keep = atom.variables.map(v => col(cols(firstPos(v))).as(v.name))
    df.select(keep: _*)
  }

  /** All successful valuations of the rule: one column per rule variable
    * (named by the variable), one row per derivation in the why provenance
    * sense (all goals succeed, all comparisons hold). Distinct. Goals join
    * on the variables they share; a goal that shares none (a ground atom
    * among them) joins without a key, and a fully ground rule has one
    * valuation, of no column, or none.
    */
  def bindings(rule: Rule, catalog: Catalog): DataFrame = {
    require(rule.isSafe, s"rule ${rule.name} is unsafe")
    catalog.validate(rule)

    val positive = rule.positiveAtoms.map(a => atomBindings(a, catalog)).reduce { (l, r) =>
      l.join(r, l.columns.toSet.intersect(r.columns.toSet).toSeq, "inner")
    }
    val compared = rule.comparisons.foldLeft(positive)((df, c) => df.where(comparisonCol(c)))
    val joined = rule.negatedAtoms.foldLeft(compared)((df, a) => antiJoin(df, a, catalog))
    joined.select(rule.variables.map(v => col(v.name)): _*).distinct()
  }

  /** A negated goal: the rows of `df` that no binding of `atom` matches on
    * the atom's variables. A ground atom joins without a key, so it removes
    * every row iff its tuple exists.
    */
  def antiJoin(df: DataFrame, atom: Atom, catalog: Catalog): DataFrame =
    df.join(atomBindings(atom, catalog), atom.variables.map(_.name), "left_anti")

  /** Q(D) restricted to one rule: distinct head projection of [[bindings]].
    * Output columns are named `c0..c(h-1)` so unions across rules align.
    */
  def answers(rule: Rule, catalog: Catalog): DataFrame = {
    val b = bindings(rule, catalog)
    val proj = rule.headArgs.zipWithIndex.map {
      case (v: Var, i)   => col(v.name).as(s"c$i")
      case (Const(c), i) => lit(c).as(s"c$i")
    }
    b.select(proj: _*).distinct()
  }

  /** Q(D) for a UCQ¬< program: union of per-rule answers, distinct. */
  def answers(program: Program, catalog: Catalog): DataFrame =
    program.rules.map(r => answers(r, catalog)).reduce(_.unionByName(_)).distinct()

  /** σ_t(Q): answers matching the p-tuple's constants (paper §5.2 step 2). */
  def restrictedAnswers(program: Program, catalog: Catalog, t: PTuple): DataFrame = {
    var df = answers(program, catalog)
    t.constantsAt.foreach { case (i, v) => df = df.where(col(s"c$i") === lit(v)) }
    df
  }
}
