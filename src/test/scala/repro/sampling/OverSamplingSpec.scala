package repro.sampling

import org.scalatest.funsuite.AnyFunSuite
import repro.datalog.CmpOp

class OverSamplingSpec extends AnyFunSuite {

  private val cap = BatchSampler.Config().nOSCap

  // Brute-force binomial tail for cross-checking the library tail.
  private def bruteTail(n: Int, k: Int, p: Double): Double = {
    def choose(n: Int, r: Int): Double =
      (1 to r).map(i => (n - r + i).toDouble / i).product
    (k to n).map(i => choose(n, i) * math.pow(p, i) * math.pow(1 - p, n - i)).sum
  }

  test("exact tail matches brute force for small n") {
    for {
      n <- Seq(5, 20, 60)
      k <- Seq(1, 3, n / 2)
      p <- Seq(0.1, 0.5, 0.9)
    } {
      val got = OverSampling.tailAtLeast(n, k, p)
      val exp = bruteTail(n, k, p)
      assert(math.abs(got - exp) < 1e-9, s"n=$n k=$k p=$p: $got vs $exp")
    }
  }

  test("tail boundary cases") {
    assert(OverSampling.tailAtLeast(10, 0, 0.3) == 1.0)
    assert(OverSampling.tailAtLeast(10, 11, 0.3) == 0.0)
    assert(OverSampling.tailAtLeast(10, 5, 0.0) == 0.0)
    assert(OverSampling.tailAtLeast(10, 5, 1.0) == 1.0)
  }

  test("minOverSample satisfies the probabilistic guarantee") {
    for {
      nS <- Seq(10L, 100L, 1000L)
      p  <- Seq(0.3, 0.7, 0.99)
    } {
      val nOS = OverSampling.minOverSample(nS, p, 0.999, cap)
      assert(OverSampling.tailAtLeast(nOS, nS, p) >= 0.999, s"nS=$nS p=$p nOS=$nOS")
      // Minimality: one fewer draw misses the guarantee.
      if (nOS > nS)
        assert(OverSampling.tailAtLeast(nOS - 1, nS, p) < 0.999, s"nS=$nS p=$p nOS=$nOS")
    }
  }

  test("minOverSample is monotone in the success probability demanded") {
    val lo = OverSampling.minOverSample(100, 0.5, 0.9, cap)
    val hi = OverSampling.minOverSample(100, 0.5, 0.9999, cap)
    assert(lo <= hi)
  }

  test("minOverSample degenerate cases") {
    assert(OverSampling.minOverSample(100, 1.0, 0.999, cap) == 100L)
    assert(OverSampling.minOverSample(100, 0.0, 0.999, cap = 5000L) == 5000L)
    // Tiny p hits the cap rather than looping forever.
    assert(OverSampling.minOverSample(1000, 1e-9, 0.999, cap = 10000L) == 10000L)
  }

  test("paper example shape: p≈1 needs barely more than nS draws") {
    // Why-not provenance vastly outweighs answers → p_prov ≈ 1 → n_OS ≈ n_S.
    val nOS = OverSampling.minOverSample(1000, 0.999, 0.999, cap)
    assert(nOS >= 1000 && nOS < 1100, s"nOS=$nOS")
  }

  test("comparison selectivity heuristics") {
    assert(OverSampling.cmpSelectivity(CmpOp.Eq, 100, 10) == 0.01)
    assert(OverSampling.cmpSelectivity(CmpOp.Neq, 100, 10) == 0.99)
    assert(math.abs(OverSampling.cmpSelectivity(CmpOp.Lt, 100, 100) - 0.495) < 1e-9)
    assert(math.abs(OverSampling.cmpSelectivity(CmpOp.Geq, 100, 100) - 0.505) < 1e-9)
    // Singleton domains: the estimate takes both to hold the same value, so
    // only equality can hold. Their values may differ; the sampler therefore
    // enumerates such a small space rather than trust the 0.
    assert(OverSampling.cmpSelectivity(CmpOp.Lt, 1, 1) == 0.0)
    assert(OverSampling.cmpSelectivity(CmpOp.Eq, 1, 1) == 1.0)
  }
}
