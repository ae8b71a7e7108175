package repro.datalog

import org.scalatest.funsuite.AnyFunSuite

class AstSpec extends AnyFunSuite {

  private val r = Rule("r", "Q", Vector(Var("X"), Var("Y")),
    Vector(Atom("R", Vector(Var("X"), Var("Z"))), Atom("R", Vector(Var("Z"), Var("Y")))),
    Vector(Comparison(Var("X"), CmpOp.Lt, Var("Y"))))

  test("variables are ordered by first occurrence, head first") {
    assert(r.variables == Vector(Var("X"), Var("Y"), Var("Z")))
  }

  test("safety holds when all variables occur positively") {
    assert(r.isSafe)
  }

  test("safety fails for a head variable missing from the body") {
    val bad = Rule("bad", "Q", Vector(Var("X"), Var("W")),
      Vector(Atom("R", Vector(Var("X"), Var("Z")))))
    assert(!bad.isSafe)
  }

  test("safety fails for a variable occurring only negated") {
    val bad = Rule("bad", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"), Var("Z"))),
        Atom("S", Vector(Var("W")), negated = true)))
    assert(!bad.isSafe)
  }

  test("safety fails for a variable occurring only in a comparison") {
    val bad = Rule("bad", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"), Var("Z")))),
      Vector(Comparison(Var("W"), CmpOp.Lt, Const(4L))))
    assert(!bad.isSafe)
  }

  test("positive and negated atoms are partitioned correctly") {
    val rule = Rule("r", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"))), Atom("S", Vector(Var("X")), negated = true)))
    assert(rule.positiveAtoms.map(_.relation) == Vector("R"))
    assert(rule.negatedAtoms.map(_.relation) == Vector("S"))
  }

  test("occurrences finds all positions of a variable across atoms") {
    assert(r.occurrences(Var("Z")) == Vector((0, 1), (1, 0)))
    assert(r.occurrences(Var("X")) == Vector((0, 0)))
  }

  test("atom variables are distinct and in order") {
    val a = Atom("R", Vector(Var("X"), Var("X"), Const(1L), Var("Y")))
    assert(a.variables == Vector(Var("X"), Var("Y")))
  }

  test("comparison classification: var-const vs var-var") {
    assert(Comparison(Var("X"), CmpOp.Lt, Const(4L)).isVarConst)
    assert(!Comparison(Var("X"), CmpOp.Lt, Const(4L)).isVarVar)
    assert(Comparison(Var("X"), CmpOp.Lt, Var("Y")).isVarVar)
    assert(!Comparison(Const(1L), CmpOp.Lt, Const(4L)).isVarConst)
  }

  test("program requires a shared head predicate") {
    val r1 = Rule("r1", "Q", Vector(Var("X")), Vector(Atom("R", Vector(Var("X")))))
    val r2 = Rule("r2", "P", Vector(Var("X")), Vector(Atom("R", Vector(Var("X")))))
    assertThrows[IllegalArgumentException](Program(r1, r2))
  }

  test("program requires a shared head arity") {
    val r1 = Rule("r1", "Q", Vector(Var("X")), Vector(Atom("R", Vector(Var("X")))))
    val r2 = Rule("r2", "Q", Vector(Var("X"), Var("Y")),
      Vector(Atom("R", Vector(Var("X"), Var("Y")))))
    assertThrows[IllegalArgumentException](Program(r1, r2))
  }

  test("empty head or body is rejected") {
    assertThrows[IllegalArgumentException](
      Rule("r", "Q", Vector.empty, Vector(Atom("R", Vector(Var("X"))))))
    assertThrows[IllegalArgumentException](
      Rule("r", "Q", Vector(Var("X")), Vector.empty))
  }

  test("p-tuple constant accounting") {
    val t = PTuple("Q", Vector(Var("N"), Const("shared")))
    assert(t.constantsAt == Vector((1, "shared")))
    assert(t.arity == 2)
  }

  test("CmpOp covers all six comparison operators") {
    assert(CmpOp.all.map(_.sql).toSet == Set("<", "<=", "<>", ">=", ">", "="))
  }
}
