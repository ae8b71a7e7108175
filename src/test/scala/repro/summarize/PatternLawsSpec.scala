package repro.summarize

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck laws for the pattern algebra (Defs 4, 5, 7, 8 and §8.1). */
class PatternLawsSpec extends AnyFunSuite {

  private def check(prop: Prop, name: String): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, s"$name: $res")
  }

  private val argGen: Gen[Option[Any]] =
    Gen.oneOf(Gen.const(None), Gen.choose(0L, 3L).map(v => Some(v)))

  private def patternGen(arity: Int, goals: Int): Gen[Pattern] = for {
    args <- Gen.listOfN(arity, argGen)
    gs   <- Gen.listOfN(goals, Gen.oneOf(true, false))
    cp   <- Gen.choose(0.0, 1.0)
  } yield Pattern("r", args.toVector, gs.toVector, cp)

  private def derivGen(arity: Int, goals: Int): Gen[(Vector[Any], Vector[Boolean])] = for {
    args <- Gen.listOfN(arity, Gen.choose(0L, 3L))
    gs   <- Gen.listOfN(goals, Gen.oneOf(true, false))
  } yield (args.toVector.map(_.asInstanceOf[Any]), gs.toVector)

  test("generalization is reflexive") {
    check(Prop.forAll(patternGen(4, 2))(p => p.generalizedBy(p)), "reflexive")
  }

  test("generalization is antisymmetric up to equality") {
    check(Prop.forAll(patternGen(3, 1), patternGen(3, 1)) { (a, b) =>
      !(a.generalizedBy(b) && b.generalizedBy(a)) || a == b.copy(cp = a.cp)
    }, "antisymmetric")
  }

  test("generalization is transitive") {
    check(Prop.forAll(patternGen(3, 1), patternGen(3, 1), patternGen(3, 1)) { (a, b, c) =>
      !(a.generalizedBy(b) && b.generalizedBy(c)) || a.generalizedBy(c)
    }, "transitive")
  }

  test("disjointness is symmetric and irreflexive on self") {
    check(Prop.forAll(patternGen(3, 2), patternGen(3, 2)) { (a, b) =>
      a.disjointWith(b) == b.disjointWith(a)
    }, "symmetric")
    check(Prop.forAll(patternGen(3, 2))(p => !p.disjointWith(p)), "not self-disjoint")
  }

  test("generalization implies match-set containment") {
    check(Prop.forAll(patternGen(3, 2), patternGen(3, 2), derivGen(3, 2)) {
      case (a, b, (d, g)) =>
        !(a.generalizedBy(b) && a.matches(d, g)) || b.matches(d, g)
    }, "containment")
  }

  test("disjointness implies empty match-set intersection") {
    check(Prop.forAll(patternGen(3, 2), patternGen(3, 2), derivGen(3, 2)) {
      case (a, b, (d, g)) =>
        !a.disjointWith(b) || !(a.matches(d, g) && b.matches(d, g))
    }, "disjoint")
  }

  test("info is in [0,1] and monotone in added constants") {
    check(Prop.forAll(patternGen(5, 1)) { p =>
      p.info >= 0.0 && p.info <= 1.0
    }, "range")
    check(Prop.forAll(patternGen(5, 1), Gen.choose(0, 4)) { (p, i) =>
      val specialized = p.copy(args = p.args.updated(i, Some(9L)))
      specialized.info >= p.info
    }, "monotone")
  }

  test("an all-placeholder pattern matches every derivation with its goals") {
    check(Prop.forAll(derivGen(4, 2)) { case (d, g) =>
      Pattern("r", Vector.fill(4)(None), g, 1.0).matches(d, g)
    }, "top")
  }

  test("a fully-constant pattern matches exactly itself") {
    check(Prop.forAll(derivGen(4, 2), derivGen(4, 2)) { case ((d1, g1), (d2, _)) =>
      val p = Pattern("r", d1.map(Some(_)), g1, 1.0)
      p.matches(d2, g1) == (d1 == d2)
    }, "bottom")
  }

  test("harmonic mean bounds: min <= hm <= max for positive inputs") {
    check(Prop.forAll(Gen.choose(0.01, 1.0), Gen.choose(0.01, 1.0)) { (a, b) =>
      val h = Pattern.harmonic(a, b)
      h >= math.min(a, b) - 1e-12 && h <= math.max(a, b) + 1e-12
    }, "bounds")
  }

  test("TopK bound sandwich: greedy S_lb <= exact S_lb <= S_ub sum semantics") {
    check(Prop.forAll(Gen.choose(2, 7).flatMap(Gen.listOfN(_, patternGen(3, 1)))) { ps =>
      val rel = new TopK.Relations(ps.toVector)
      val all = Array.range(0, ps.size)
      val lo  = rel.lowerBound(all)
      val ex  = rel.exactLowerBound(all)
      val hi  = rel.upperBound(all)
      lo <= ex + 1e-12 && ex <= math.min(1.0, ps.map(_.cp).sum) + 1e-12 && hi >= 0.0
    }, "sandwich")
  }

  test("pairwise-disjoint sets: lower and upper completeness bounds coincide") {
    // Construct pairwise-disjoint patterns via distinct constants at slot 0.
    check(Prop.forAll(Gen.choose(1, 6), Gen.choose(0.0, 0.15)) { (n, cp) =>
      val ps = (0 until n).map(i =>
        Pattern("r", Vector(Some(i.toLong), None), Vector(true), cp))
      val rel = new TopK.Relations(ps.toVector)
      val all = Array.range(0, n)
      math.abs(rel.exactLowerBound(all) - rel.upperBound(all)) < 1e-9
    }, "disjoint-tight")
  }

  test("the kernel's bounds equal the reference's on member sets of up to 15 and of more") {
    // Two rules of different arity, cp from three values so the greedy
    // bound's scan meets ties, and pools that repeat a pattern's key.
    val pattern = for {
      rule <- Gen.oneOf("r", "s")
      args <- Gen.listOfN(if (rule == "r") 3 else 2, argGen)
      gs   <- Gen.listOfN(1, Gen.oneOf(true, false))
      cp   <- Gen.oneOf(0.05, 0.1, 0.25)
    } yield Pattern(rule, args.toVector, gs.toVector, cp)
    def agree(minSize: Int, maxSize: Int) = Prop.forAll(
      Gen.choose(maxSize, 30).flatMap(Gen.listOfN(_, pattern)), Gen.choose(minSize, maxSize), Gen.long
    ) { (pool, size, seed) =>
      val rel     = new TopK.Relations(pool.toVector)
      val members = new scala.util.Random(seed).shuffle(pool.indices.toVector).take(size)
      val ps      = members.map(pool)
      rel.lowerBound(members.toArray) == TopKReference.cpLowerBound(ps) &&
        rel.exactLowerBound(members.toArray) == TopKReference.cpLowerBoundExact(ps) &&
        rel.upperBound(members.toArray) == TopKReference.cpUpperBound(ps)
    }
    check(agree(1, 15), "up to 15 members")
    check(agree(16, 30), "more than 15 members")
  }
}
