package repro.summarize

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TopKSpec extends AnyFunSuite {

  private def p(name: String, cp: Double, args: Option[Any]*)(goals: Boolean*) =
    Pattern(name, args.toVector, goals.toVector, cp)

  /** The kernel's greedy `S_lb`, exact `S_lb` and `S_ub` of a whole pool. */
  private def bounds(ps: Seq[Pattern]): (Double, Double, Double) = {
    val rel = new TopK.Relations(ps.toVector)
    val all = Array.range(0, ps.size)
    (rel.lowerBound(all), rel.exactLowerBound(all), rel.upperBound(all))
  }

  test("paper Ex 10: generalization and disjointness tighten the bounds to 0.99") {
    val pa  = p("r", 0.44, Some(2L), None)(false, false)
    val pb  = p("r", 0.55, Some(3L), None)(false, false)
    val pc  = p("r", 0.10, Some(2L), Some(1L))(false, false)
    val s   = Seq(pa, pb, pc)
    assert(pa.disjointWith(pb) && pb.disjointWith(pc) && pc.generalizedBy(pa))
    val (_, exact, upper) = bounds(s)
    assert(math.abs(exact - 0.99) < 1e-12)
    assert(math.abs(upper - 0.99) < 1e-12)
  }

  test("greedy lower bound never exceeds the exact one and both are valid") {
    val rnd = new Random(4)
    for (_ <- 1 to 100) {
      val ps = Vector.fill(2 + rnd.nextInt(6))(Pattern("r",
        Vector.fill(3)(if (rnd.nextBoolean()) Some(rnd.nextInt(3).toLong) else None),
        Vector(rnd.nextBoolean()), rnd.nextDouble() * 0.4))
      val (greedy, exact, _) = bounds(ps)
      assert(greedy <= exact + 1e-12)
      assert(exact <= math.min(1.0, ps.map(_.cp).sum) + 1e-12)
      assert(exact >= ps.map(_.cp).max - 1e-12) // singleton subsets allowed
    }
  }

  test("upper bound drops generalized patterns") {
    val general  = p("r", 0.5, None, None)(true)
    val specific = p("r", 0.3, Some(1L), None)(true)
    assert(math.abs(bounds(Seq(general, specific))._3 - 0.5) < 1e-12)
  }

  test("upper bound sums non-overlapping evidence and clamps at 1") {
    val a = p("r", 0.7, Some(1L))(true)
    val b = p("r", 0.6, Some(2L))(true)
    assert(bounds(Seq(a, b))._3 == 1.0)
  }

  test("n <= k returns all patterns") {
    val ps = Vector(p("r", 0.5, Some(1L))(true), p("r", 0.3, Some(2L))(true))
    val s  = TopK.summarize(ps, k = 5)
    assert(s.patterns.toSet == ps.toSet)
    assert(s.optimal)
  }

  test("empty input yields an empty summary") {
    val s = TopK.summarize(Vector.empty, k = 3)
    assert(s.patterns.isEmpty && s.optimal)
  }

  test("k=1 picks the best harmonic(cp, info) singleton") {
    val ps = Vector(
      p("r", 0.9, None, None)(true),           // info 0 → score 0
      p("r", 0.5, Some(1L), None)(true),       // hm(0.5, 0.5) = 0.5
      p("r", 0.05, Some(1L), Some(2L))(true))  // hm(0.05, 1) ≈ 0.095
    val s = TopK.summarize(ps, k = 1)
    assert(s.patterns == Vector(ps(1)))
  }

  test("score matches brute force on all-disjoint patterns (exact score)") {
    // All patterns pairwise disjoint → cp of a set is the plain sum; the
    // branch-and-bound must find the argmax of hm(sum cp, avg info).
    val ps = Vector(
      p("r", 0.30, Some(1L), Some(1L))(true), // info 1
      p("r", 0.25, Some(2L), None)(true),     // info .5
      p("r", 0.20, Some(3L), Some(3L))(true), // info 1
      p("r", 0.15, Some(4L), None)(true),
      p("r", 0.10, Some(5L), Some(5L))(true))
    for (k <- 1 to 4) {
      val got = TopK.summarize(ps, k)
      val best = ps.combinations(k).map { c =>
        val cp  = c.map(_.cp).sum
        val inf = c.map(_.info).sum / k
        (c.toSet, Pattern.harmonic(cp, inf))
      }.maxBy(_._2)
      assert(math.abs(got.scLow - best._2) < 1e-9, s"k=$k")
      assert(got.patterns.toSet == best._1, s"k=$k")
    }
  }

  test("branch-and-bound winner is within bounds of every candidate set") {
    val rnd = new Random(5)
    for (trial <- 1 to 20) {
      val ps = Vector.fill(8)(Pattern("r",
        Vector.fill(2)(if (rnd.nextBoolean()) Some(rnd.nextInt(3).toLong) else None),
        Vector(true), 0.05 + rnd.nextDouble() * 0.2)).distinct
      val k = 1 + rnd.nextInt(3)
      if (ps.size > k) {
        val got = TopK.summarize(ps, k)
        // Optimality certificate: winner's upper bound must be >= every
        // other complete set's lower bound.
        if (got.optimal) {
          val rel = new TopK.Relations(ps)
          ps.indices.combinations(k).foreach { c =>
            val cpL = rel.exactLowerBound(c.toArray)
            val inf = c.map(ps(_).info).sum / k
            val scL = Pattern.harmonic(cpL, inf)
            assert(got.scHigh >= scL - 1e-9, s"trial $trial: beaten by ${c.map(ps).toSet}")
          }
        }
        assert(got.patterns.size == k)
        assert(got.scLow <= got.scHigh + 1e-12)
        assert(got.cpLow <= got.cpHigh + 1e-12)
      }
    }
  }

  test("budget exhaustion falls back to the mid-score heuristic with a valid set") {
    val rnd = new Random(6)
    val ps = Vector.tabulate(40)(i => Pattern("r",
      Vector(Some(i.toLong), if (rnd.nextBoolean()) Some(rnd.nextInt(5).toLong) else None),
      Vector(true), 0.01 + rnd.nextDouble() * 0.05)).distinct
    val s = TopK.summarize(ps, k = 5, maxPops = 3)
    assert(s.patterns.size == 5)
    assert(s.patterns.distinct.size == 5)
  }

  test("a search whose frontier guard drops a candidate is not reported optimal") {
    // Pairwise disjoint, so the unguarded search certifies its winner, and
    // only after expanding singletons into pairs. With a frontier of 0 no
    // candidate is expanded: their completions go unexamined.
    val ps = Vector(
      p("r", 0.30, Some(1L), Some(1L))(true),
      p("r", 0.25, Some(2L), None)(true),
      p("r", 0.20, Some(3L), Some(3L))(true),
      p("r", 0.15, Some(4L), None)(true),
      p("r", 0.10, Some(5L), Some(5L))(true))
    val full = TopK.summarize(ps, k = 2)
    assert(full.optimal && full.pops > 1)
    val guarded = TopK.search(ps, k = 2, maxPatterns = 300, maxPops = 3000L, frontier = 0)
    assert(!guarded.optimal, guarded)
    assert(guarded.patterns.distinct.size == 2)
    // A guard the search never reaches changes nothing.
    assert(TopK.search(ps, k = 2, maxPatterns = 300, maxPops = 3000L, frontier = 100) == full)
  }

  test("maxPatterns guard trims the candidate pool") {
    val ps = Vector.tabulate(50)(i =>
      p("r", 0.02, Some(i.toLong), Some(i.toLong))(true))
    val s = TopK.summarize(ps, k = 3, maxPatterns = 10)
    assert(s.patterns.size == 3)
  }

  test("duplicate patterns are deduped before the search") {
    val dup = p("r", 0.4, Some(1L))(true)
    val s   = TopK.summarize(Vector(dup, dup, p("r", 0.3, Some(2L))(true)), k = 2)
    assert(s.patterns.distinct.size == 2)
  }

  test("patterns from different rules are additive (union queries)") {
    val a = p("r1", 0.5, Some(1L))(true)
    val b = p("r2", 0.4, Some(1L))(true)
    val s = TopK.summarize(Vector(a, b), k = 2)
    assert(math.abs(s.cpLow - 0.9) < 1e-12) // disjoint across rules
  }

  test("the summary is invariant under permutation of a pool with tied cp and info") {
    // Two rules, two goal vectors, three slots over {0, 1, 2}: distinct keys,
    // but cp from two values and info from the constant count, so most
    // patterns tie on both ranking keys, and the cut and the search must
    // choose among ties.
    val arg  = Gen.oneOf(Gen.const(None), Gen.choose(0L, 2L).map(v => Some(v)))
    val pattern = for {
      rule  <- Gen.oneOf("r", "s")
      goals <- Gen.listOfN(2, Gen.oneOf(true, false))
      args  <- Gen.listOfN(3, arg)
      cp    <- Gen.oneOf(0.1, 0.2)
    } yield Pattern(rule, args.toVector, goals.toVector, cp)
    val pool = Gen.listOfN(30, pattern).map(_.distinctBy(p => (p.ruleName, p.goals, p.args)).toVector)
    val prop = Prop.forAll(pool, Gen.choose(1, 3), Gen.choose(1, 6), Gen.long) { (ps, k, maxPatterns, seed) =>
      val shuffled = new Random(seed).shuffle(ps)
      TopK.summarize(ps, k, maxPatterns, maxPops = 200) ==
        TopK.summarize(shuffled, k, maxPatterns, maxPops = 200)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res)
  }
}
