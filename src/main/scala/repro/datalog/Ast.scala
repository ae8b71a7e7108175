package repro.datalog

/** Abstract syntax for UCQ¬< — unions of conjunctive queries with negation
  * and comparisons — the query class the paper summarizes provenance for
  * (paper §2.1).
  *
  * A program is a set of rules sharing one head predicate. Rule bodies
  * contain positive/negated relation atoms and comparison predicates.
  * Constants are plain Scala values (`String`, `Long`, `Double`, ...); they
  * are compared with Spark semantics when compiled to Catalyst plans.
  */
sealed trait Term extends Product with Serializable

/** A rule variable (or, inside a [[PTuple]], a placeholder). */
final case class Var(name: String) extends Term {
  override def toString: String = name
}

/** A constant drawn from the universal domain D. */
final case class Const(value: Any) extends Term {
  override def toString: String = value.toString
}

/** Comparison operators allowed in rule bodies (paper §2.1). */
sealed abstract class CmpOp(val sql: String) extends Product with Serializable
object CmpOp {
  case object Lt  extends CmpOp("<")
  case object Leq extends CmpOp("<=")
  case object Neq extends CmpOp("<>")
  case object Geq extends CmpOp(">=")
  case object Gt  extends CmpOp(">")
  case object Eq  extends CmpOp("=")
  val all: Seq[CmpOp] = Seq(Lt, Leq, Neq, Geq, Gt, Eq)
}

/** A relation atom `R(args)` or its negation `¬R(args)`. */
final case class Atom(relation: String, args: Vector[Term], negated: Boolean = false) {
  def arity: Int = args.size
  def variables: Vector[Var] = args.collect { case v: Var => v }.distinct
  override def toString: String =
    s"${if (negated) "¬" else ""}$relation(${args.mkString(", ")})"
}

/** A comparison `left ◇ right` where each side is a variable or constant. */
final case class Comparison(left: Term, op: CmpOp, right: Term) {
  def variables: Vector[Var] =
    Vector(left, right).collect { case v: Var => v }.distinct
  /** True iff one side is a variable and the other a constant. */
  def isVarConst: Boolean = (left, right) match {
    case (_: Var, _: Const) | (_: Const, _: Var) => true
    case _                                       => false
  }
  /** True iff both sides are variables. */
  def isVarVar: Boolean = (left, right) match {
    case (_: Var, _: Var) => true
    case _                => false
  }
  override def toString: String = s"$left ${op.sql} $right"
}

/** A single Datalog rule `head :- atoms, comparisons`.
  *
  * @param name       rule identifier (e.g. "r1"), used to tag patterns
  * @param headPred   head predicate name
  * @param headArgs   head argument terms (variables or constants)
  * @param atoms      relation goals, in body order (goal annotations follow
  *                   this order, paper Def. 1)
  * @param comparisons comparison predicates (not goals — they carry no
  *                   annotation, paper §2.2)
  */
final case class Rule(
    name: String,
    headPred: String,
    headArgs: Vector[Term],
    atoms: Vector[Atom],
    comparisons: Vector[Comparison] = Vector.empty,
) {

  /** Rule variables ordered by first occurrence, head first (paper §2.1:
    * "variables are ordered by the position of their first occurrence").
    */
  val variables: Vector[Var] = {
    val fromHead = headArgs.collect { case v: Var => v }
    val fromBody = atoms.flatMap(_.args).collect { case v: Var => v }
    val fromCmp  = comparisons.flatMap(_.variables)
    (fromHead ++ fromBody ++ fromCmp).distinct
  }

  /** The head as an atom over the answers: `Q_der`'s negated goal (§5.2). */
  def head: Atom = Atom(headPred, headArgs)

  def positiveAtoms: Vector[Atom] = atoms.filterNot(_.negated)
  def negatedAtoms: Vector[Atom]  = atoms.filter(_.negated)

  /** Safety (paper §2.1): every variable must occur in a positive body atom. */
  def isSafe: Boolean = {
    val positive = positiveAtoms.flatMap(_.variables).toSet
    variables.forall(positive.contains)
  }

  /** Positions (atom index, argument index) where a variable occurs in
    * relation atoms — the paper's `attrs(X)` used to build variable domains.
    */
  def occurrences(v: Var): Vector[(Int, Int)] =
    for {
      (a, ai) <- atoms.zipWithIndex
      (t, ti) <- a.args.zipWithIndex
      if t == v
    } yield (ai, ti)

  require(headArgs.nonEmpty, s"rule $name: empty head")
  require(atoms.nonEmpty, s"rule $name: empty body")

  override def toString: String =
    s"$name: $headPred(${headArgs.mkString(", ")}) :- " +
      (atoms.map(_.toString) ++ comparisons.map(_.toString)).mkString(", ")
}

/** A UCQ¬< program: rules sharing the same head predicate and arity. */
final case class Program(rules: Vector[Rule]) {
  require(rules.nonEmpty, "empty program")
  require(rules.map(_.headPred).distinct.size == 1,
    s"UCQ rules must share one head predicate, got ${rules.map(_.headPred).distinct}")
  require(rules.map(_.headArgs.size).distinct.size == 1,
    "UCQ rules must share head arity")
  def headPred: String = rules.head.headPred
}

object Program {
  def apply(rule: Rule, more: Rule*): Program = Program((rule +: more).toVector)
}

/** A pattern tuple (p-tuple): the head tuple of a provenance question, with
  * constants and placeholders (paper Def. 2). Placeholders are represented
  * as [[Var]]s.
  */
final case class PTuple(pred: String, args: Vector[Term]) {
  def arity: Int = args.size
  def constantsAt: Vector[(Int, Any)] =
    args.zipWithIndex.collect { case (Const(v), i) => (i, v) }
  override def toString: String = s"$pred(${args.mkString(", ")})"
}

/** Why vs Whynot provenance question type (paper Def. 2). */
sealed trait PQType extends Product with Serializable
case object Why    extends PQType
case object Whynot extends PQType

/** A provenance question Φ = (t, type) over a program (paper Def. 2). */
final case class ProvQuestion(tuple: PTuple, qtype: PQType) {
  override def toString: String = s"$qtype[$tuple]"
}
