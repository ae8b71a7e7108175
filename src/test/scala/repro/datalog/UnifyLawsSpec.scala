package repro.datalog

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck laws for p-tuple unification. */
class UnifyLawsSpec extends AnyFunSuite {

  private def check(prop: Prop, name: String): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, s"$name: $res")
  }

  // A small family of 2-ary rules over R(A,B) with distinct head vars.
  private val rule = Rule("r", "Q", Vector(Var("X"), Var("Y")),
    Vector(Atom("R", Vector(Var("X"), Var("Z"))), Atom("R", Vector(Var("Z"), Var("Y")))),
    Vector(Comparison(Var("X"), CmpOp.Lt, Var("Y"))))

  private val termGen: Gen[Term] =
    Gen.oneOf(Gen.choose(0L, 5L).map(Const(_)), Gen.const(Var("P")))

  private val ptupleGen: Gen[PTuple] = for {
    a <- termGen; b <- termGen
  } yield PTuple("Q", Vector(a, b))

  test("unification never fails for distinct head variables") {
    check(Prop.forAll(ptupleGen)(t => Unify.unify(rule, t).isDefined), "total")
  }

  test("unbound variables = all variables minus bound head variables") {
    check(Prop.forAll(ptupleGen) { t =>
      val u = Unify.unify(rule, t).get
      val expected = rule.variables.filterNot(u.bound.keySet.contains)
      u.unboundVars == expected
    }, "unbound")
  }

  test("bound head variables vanish from the unified rule") {
    check(Prop.forAll(ptupleGen) { t =>
      val u = Unify.unify(rule, t).get
      u.bound.keySet.intersect(u.rule.variables.toSet).isEmpty
    }, "vanish")
  }

  test("number of constants in t equals number of bound variables (distinct heads)") {
    check(Prop.forAll(ptupleGen) { t =>
      Unify.unify(rule, t).get.bound.size == t.constantsAt.size
    }, "count")
  }

  test("unified comparisons reference only unified-rule terms") {
    check(Prop.forAll(ptupleGen) { t =>
      val u = Unify.unify(rule, t).get
      u.rule.comparisons.flatMap(_.variables).toSet.subsetOf(
        u.rule.variables.toSet ++ u.unboundVars.toSet)
    }, "comparisons")
  }
}
