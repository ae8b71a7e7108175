package repro.sampling

/** Over-sampling size computation (paper §5.3): choose `n_OS` such that a
  * batch of `n_OS` independent draws, each landing in the why-not provenance
  * with probability `p`, contains at least `n_S` hits with probability at
  * least `P_success`. Uses the exact binomial tail in log space for small
  * batches and the normal approximation (with continuity correction) for
  * large ones — the paper cites Abramowitz & Stegun for exactly this.
  */
object OverSampling {

  /** Threshold below which the exact binomial tail is computed. */
  private val ExactLimit = 100000L

  /** Lanczos approximation of log Γ(x), x > 0. Max error ~1e-13. */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma domain: $x")
    val g = 7.0
    val c = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      // Reflection formula keeps us accurate near zero.
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val xx = x - 1.0
      var a  = c(0)
      val t  = xx + g + 0.5
      for (i <- 1 until 9) a += c(i) / (xx + i)
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** log C(n, k). */
  def logChoose(n: Long, k: Long): Double = {
    require(k >= 0 && k <= n, s"logChoose($n, $k)")
    logGamma(n + 1.0) - logGamma(k + 1.0) - logGamma(n - k + 1.0)
  }

  /** Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf fit
    * (|error| < 1.5e-7).
    */
  def phi(x: Double): Double = {
    val t    = 1.0 / (1.0 + 0.3275911 * math.abs(x) / math.sqrt(2.0))
    val y    = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t
      - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x / 2.0)
    if (x >= 0) 0.5 * (1.0 + y) else 0.5 * (1.0 - y)
  }

  /** P(X >= nS) for X ~ Binomial(nOS, p). */
  def tailAtLeast(nOS: Long, nS: Long, p: Double): Double = {
    require(p >= 0 && p <= 1, s"p=$p")
    if (nS <= 0) 1.0
    else if (nS > nOS) 0.0
    else if (p == 0.0) 0.0
    else if (p == 1.0) 1.0
    else if (nOS <= ExactLimit) {
      // Exact: 1 - P(X <= nS-1), summing the smaller side in log space.
      val logP  = math.log(p)
      val logQ  = math.log1p(-p)
      val below = (0L until nS).map { i =>
        math.exp(logChoose(nOS, i) + i * logP + (nOS - i) * logQ)
      }.sum
      math.max(0.0, math.min(1.0, 1.0 - below))
    } else {
      val mu    = nOS * p
      val sigma = math.sqrt(nOS * p * (1 - p))
      phi((mu - nS + 0.5) / sigma)
    }
  }

  /** Minimum `n_OS >= n_S` with `tailAtLeast(n_OS, n_S, p) >= pSuccess`,
    * capped at `cap` (the paper's guarantee becomes best-effort when the
    * success probability is so small that the exact size would be
    * impractical). A capped draw shows as `RuleSample.nOS == cfg.nOSCap`.
    */
  def minOverSample(nS: Long, p: Double, pSuccess: Double, cap: Long = 10_000_000L): Long = {
    require(nS >= 1, s"nS=$nS")
    require(pSuccess > 0 && pSuccess < 1, s"pSuccess=$pSuccess")
    if (p <= 0.0) return cap
    if (p >= 1.0) return nS
    // Exponential search for an upper bracket, then binary search.
    var hi = math.max(nS, math.ceil(nS / p).toLong)
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
