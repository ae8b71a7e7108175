package repro.datalog

import org.scalatest.funsuite.AnyFunSuite
import repro.data.Queries

class UnifySpec extends AnyFunSuite {

  private val rEx = Queries.rEx.rules.head // Qex(X,Y) :- R(X,Z), R(Z,Y), X<Y

  test("unifying the Fig 3 rule with Qex(X,4) binds Y throughout") {
    val u = Unify.unify(rEx, PTuple("Qex", Vector(Var("X"), Const(4L)))).get
    assert(u.bound == Map(Var("Y") -> 4L))
    assert(u.unboundVars == Vector(Var("X"), Var("Z")))
    // Second atom becomes R(Z, 4).
    assert(u.rule.atoms(1).args == Vector(Var("Z"), Const(4L)))
    // Comparison X < Y becomes X < 4.
    assert(u.rule.comparisons == Vector(Comparison(Var("X"), CmpOp.Lt, Const(4L))))
  }

  test("unification with an all-placeholder p-tuple changes nothing") {
    val u = Unify.unify(rEx, PTuple("Qex", Vector(Var("A"), Var("B")))).get
    assert(u.bound.isEmpty)
    assert(u.rule == rEx)
    assert(u.unboundVars == rEx.variables)
  }

  test("unification with a fully ground p-tuple leaves only existential vars") {
    val u = Unify.unify(rEx, PTuple("Qex", Vector(Const(2L), Const(4L)))).get
    assert(u.unboundVars == Vector(Var("Z")))
    assert(u.rule.comparisons == Vector(Comparison(Const(2L), CmpOp.Lt, Const(4L))))
  }

  test("head constant clashing with the p-tuple fails unification") {
    val r = Rule("r", "Q", Vector(Const("a"), Var("X")),
      Vector(Atom("R", Vector(Var("X")))))
    assert(Unify.unify(r, PTuple("Q", Vector(Const("b"), Var("Y")))).isEmpty)
    assert(Unify.unify(r, PTuple("Q", Vector(Const("a"), Var("Y")))).isDefined)
  }

  test("repeated head variable forced to two different constants fails") {
    val r = Rule("r", "Q", Vector(Var("X"), Var("X")),
      Vector(Atom("R", Vector(Var("X")))))
    assert(Unify.unify(r, PTuple("Q", Vector(Const(1L), Const(2L)))).isEmpty)
    assert(Unify.unify(r, PTuple("Q", Vector(Const(1L), Const(1L)))).isDefined)
  }

  test("arity or predicate mismatch is rejected") {
    assertThrows[IllegalArgumentException](
      Unify.unify(rEx, PTuple("Qex", Vector(Var("X")))))
    assertThrows[IllegalArgumentException](
      Unify.unify(rEx, PTuple("Other", Vector(Var("X"), Var("Y")))))
  }

  test("unification substitutes into negated atoms too") {
    val r = Queries.r1.rules.head // InvalidD(C) :- LICENSE(..C..), ¬VALID(I)
    val u = Unify.unify(r, PTuple("InvalidD", Vector(Const("swanton")))).get
    assert(u.rule.atoms.head.args(3) == Const("swanton"))
    assert(u.unboundVars.map(_.name).toSet == Set("I", "B", "G", "T"))
  }
}
