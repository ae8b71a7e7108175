package repro.sampling

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck laws for the binomial over-sampling math (§5.3). */
class OverSamplingLawsSpec extends AnyFunSuite {

  private def check(prop: Prop, name: String): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, s"$name: $res")
  }

  private val pGen = Gen.choose(0.05, 0.99)
  private val cap  = BatchSampler.Config().nOSCap

  test("tail is a probability") {
    check(Prop.forAll(Gen.choose(1L, 500L), Gen.choose(1L, 100L), pGen) { (n, k, p) =>
      val t = OverSampling.tailAtLeast(n, k, p)
      t >= 0.0 && t <= 1.0
    }, "range")
  }

  test("tail is monotone increasing in nOS") {
    check(Prop.forAll(Gen.choose(10L, 300L), Gen.choose(1L, 10L), pGen) { (n, k, p) =>
      OverSampling.tailAtLeast(n + 1, k, p) >= OverSampling.tailAtLeast(n, k, p) - 1e-12
    }, "monotone-n")
  }

  test("tail is monotone decreasing in nS") {
    check(Prop.forAll(Gen.choose(10L, 300L), Gen.choose(1L, 9L), pGen) { (n, k, p) =>
      OverSampling.tailAtLeast(n, k + 1, p) <= OverSampling.tailAtLeast(n, k, p) + 1e-12
    }, "monotone-k")
  }

  test("tail is monotone increasing in p") {
    check(Prop.forAll(Gen.choose(10L, 300L), Gen.choose(1L, 10L), pGen) { (n, k, p) =>
      val p2 = math.min(0.999, p + 0.05)
      OverSampling.tailAtLeast(n, k, p2) >= OverSampling.tailAtLeast(n, k, p) - 1e-12
    }, "monotone-p")
  }

  test("tail complements the binomial CDF: P(X>=1) = 1-(1-p)^n") {
    // Up to 500 000 draws, p log-uniform down to 1e-5: the regime of rare
    // provenance, where n_OS is large.
    val rareP = Gen.choose(math.log(1e-5), math.log(0.99)).map(math.exp)
    check(Prop.forAll(Gen.choose(1L, 500000L), rareP) { (n, p) =>
      val got = OverSampling.tailAtLeast(n, 1L, p)
      val exp = 1.0 - math.pow(1.0 - p, n.toDouble)
      math.abs(got - exp) < 1e-9
    }, "k=1 closed form")
  }

  test("minOverSample result always meets the guarantee (within cap)") {
    check(Prop.forAll(Gen.choose(1L, 200L), pGen, Gen.choose(0.9, 0.999)) { (nS, p, ps) =>
      val nOS = OverSampling.minOverSample(nS, p, ps, cap = 5_000_000L)
      nOS == 5_000_000L || OverSampling.tailAtLeast(nOS, nS, p) >= ps
    }, "guarantee")
  }

  test("minOverSample is at least nS and decreasing in p") {
    check(Prop.forAll(Gen.choose(1L, 100L), pGen) { (nS, p) =>
      val a = OverSampling.minOverSample(nS, p, 0.99, cap)
      val b = OverSampling.minOverSample(nS, math.min(0.999, p + 0.1), 0.99, cap)
      a >= nS && b <= a
    }, "monotone")
  }
}
