package repro.summarize

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.data.{Datasets, Queries}

/** `TopK.search` against [[TopKReference]]: the same `Summary` — patterns,
  * bounds, info, `optimal` and pops — compared with `==`, no tolerance.
  */
class TopKReferenceSpec extends SparkSpec {

  private def same(pool: Vector[Pattern], k: Int, maxPatterns: Int, maxPops: Long, frontier: Int) =
    TopK.search(pool, k, maxPatterns, maxPops, frontier) ==
      TopKReference.search(pool, k, maxPatterns, maxPops, frontier)

  test("the search equals the reference on random pools") {
    // Each rule has its own arity (2–4 slots) and goal count (1–3); cp and
    // info come from few values, so ranks and bounds meet ties. A pool may
    // repeat a pattern or its key with another cp, and may exceed the cut.
    val rule = for {
      name  <- Gen.oneOf("r", "s", "t")
      arity <- Gen.choose(2, 4)
      goals <- Gen.choose(1, 3)
    } yield (name, arity, goals)
    def pattern(rules: Seq[(String, Int, Int)]) = for {
      r    <- Gen.oneOf(rules)
      args <- Gen.listOfN(r._2, Gen.oneOf(Gen.const(None), Gen.choose(0L, 2L).map(v => Some(v))))
      gs   <- Gen.listOfN(r._3, Gen.oneOf(true, false))
      cp   <- Gen.oneOf(Gen.oneOf(0.05, 0.1, 0.2), Gen.choose(0.0, 0.3))
    } yield Pattern(r._1, args.toVector, gs.toVector, cp)
    val pool = for {
      rules    <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, rule)).map(_.distinctBy(_._1))
      size     <- Gen.choose(0, 40)
      ps       <- Gen.listOfN(size, pattern(rules))
      repeated <- Gen.someOf(ps)
    } yield (ps ++ repeated.map(p => p.copy(cp = p.cp / 2)) ++ repeated.take(2)).toVector
    val prop = Prop.forAll(pool, Gen.choose(1, 10), Gen.choose(1, 40),
        Gen.oneOf(1L, 7L, 200L, 3000L), Gen.oneOf(0, 100000)) {
      (ps, k, maxPatterns, maxPops, frontier) => same(ps, k, maxPatterns, maxPops, frontier)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res)
  }

  test("the search equals the reference on the why r1 pool at k = 10 and 3000 pops") {
    val pool = Summarizer.summarize(spark, Queries.r1, Datasets.license(spark, 10000),
      Queries.whyR1, Summarizer.Config(nS = 1000, k = 10)).allPatterns
    assert(pool.size > 300) // the cut is taken
    val got = TopK.search(pool, 10, maxPatterns = 300, maxPops = 3000L, frontier = 100000)
    assert(got.pops == 3000L && !got.optimal, got) // the search runs to its budget
    assert(got == TopKReference.search(pool, 10, maxPatterns = 300, maxPops = 3000L, frontier = 100000))
  }
}
