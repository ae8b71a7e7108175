package repro.sampling

import org.apache.commons.math3.distribution.BinomialDistribution

/** Over-sampling size computation (paper §5.3): choose `n_OS` such that a
  * batch of `n_OS` independent draws, each landing in the why-not provenance
  * with probability `p`, contains at least `n_S` hits with probability at
  * least `P_success`. The binomial tail is exact at every size, taken from
  * commons-math3 (part of the Spark distribution).
  */
object OverSampling {

  /** P(X >= nS) for X ~ Binomial(nOS, p). */
  def tailAtLeast(nOS: Long, nS: Long, p: Double): Double = {
    require(p >= 0 && p <= 1, s"p=$p")
    val x = new BinomialDistribution(null, math.toIntExact(nOS), p)
    1.0 - x.cumulativeProbability(math.toIntExact(nS - 1))
  }

  /** Minimum `n_OS >= n_S` with `tailAtLeast(n_OS, n_S, p) >= pSuccess`,
    * capped at `cap` (the paper's guarantee becomes best-effort when the
    * success probability is so small that the exact size would be
    * impractical). A capped draw shows as `RuleSample.nOS == cfg.nOSCap`.
    * The ends need no case of their own: `p = 1` brackets at `n_S`, whose
    * tail is 1, and `p = 0` at `cap`, whose tail is 0. The sampler asks
    * only for a space too large to enumerate and a `p` above 0.
    */
  def minOverSample(nS: Long, p: Double, pSuccess: Double, cap: Long): Long = {
    require(nS >= 1, s"nS=$nS")
    require(pSuccess > 0 && pSuccess < 1, s"pSuccess=$pSuccess")
    // Exponential search for an upper bracket, then binary search.
    var hi = math.min(cap, math.max(nS, math.ceil(nS / p).toLong))
    while (hi < cap && tailAtLeast(hi, nS, p) < pSuccess) hi = math.min(cap, hi * 2)
    if (tailAtLeast(hi, nS, p) < pSuccess) return cap
    var lo = nS
    while (lo < hi) {
      val mid = lo + (hi - lo) / 2
      if (tailAtLeast(mid, nS, p) >= pSuccess) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Heuristic selectivity of a variable–variable comparison (paper §5.3
    * "Handling Predicates": estimated with standard techniques), given the
    * two domain sizes.
    */
  def cmpSelectivity(op: repro.datalog.CmpOp, dl: Long, dr: Long): Double = {
    import repro.datalog.CmpOp._
    val maxD = math.max(1L, math.max(dl, dr)).toDouble
    op match {
      case Eq        => 1.0 / maxD
      case Neq       => 1.0 - 1.0 / maxD
      case Lt | Gt   => 0.5 * (1.0 - 1.0 / maxD)
      case Leq | Geq => 0.5 * (1.0 + 1.0 / maxD)
    }
  }
}
