package repro.summarize

import scala.collection.mutable

/** Top-k summary construction (paper §8): best-first search over pattern
  * sets with completeness bounds derived from pattern generalization (⪯p,
  * match-set containment → upper bound via `S_ub`) and disjointness (⊥p,
  * additive completeness → lower bound via `S_lb`).
  *
  * Both relations are computed once per call, after the rank cut, as bitset
  * rows over the pool's indices ([[Relations]]); the search then scores
  * candidates from index arrays and those rows alone, and never compares two
  * patterns.
  *
  * Exact completeness of a set is unknowable from per-pattern completeness
  * alone (match sets overlap), so the search is branch-and-bound on the
  * score interval [sc̲, sc̄]: it terminates when the best complete
  * candidate's lower bound dominates every open candidate's upper bound
  * (then the result is certifiably optimal w.r.t. the bounds); on budget
  * exhaustion it falls back to the paper's heuristic — the complete
  * candidate with the highest (sc̲+sc̄)/2.
  */
object TopK {

  /** A scored summary. `optimal` is true when the branch-and-bound proof
    * completed; otherwise the heuristic fallback was used.
    */
  final case class Summary(
      patterns: Vector[Pattern],
      scLow: Double,
      scHigh: Double,
      cpLow: Double,
      cpHigh: Double,
      info: Double,
      optimal: Boolean,
      pops: Long,
  )

  /** Ranks a pool for the `maxPatterns` cut and the search: by
    * harmonic(cp, info), then cp, both descending; patterns tied on both
    * are ordered by rule, goal vector and arguments (placeholder first), so
    * the summary does not depend on the order of the pool.
    */
  private[summarize] val rank: Ordering[Pattern] = {
    import Ordering.Implicits.seqOrdering
    val value: Ordering[Any] = (a, b) =>
      if (a.getClass == b.getClass && a.isInstanceOf[Comparable[_]])
        a.asInstanceOf[Comparable[Any]].compareTo(b)
      else a.getClass.getName.compareTo(b.getClass.getName)
    Ordering.by((p: Pattern) => (-Pattern.harmonic(p.cp, p.info), -p.cp))
      .orElseBy(_.ruleName)
      .orElseBy(_.goals)
      .orElse(Ordering.by((p: Pattern) => p.args)(seqOrdering(Ordering.Option(value))))
  }

  /** A pool's cp and info, and its `⊥p` and `⪯p` relations as bitset rows
    * over the pool's indices (⌈n/64⌉ words a row). A member set is an
    * array of indices; every bound below equals the paper's definition on
    * the patterns at those indices, summed in the same order.
    */
  private[summarize] final class Relations(val ps: Vector[Pattern]) {
    val n: Int              = ps.size
    val cp: Array[Double]   = ps.iterator.map(_.cp).toArray
    val info: Array[Double] = ps.iterator.map(_.info).toArray

    private def rows(related: (Pattern, Pattern) => Boolean): Array[Array[Long]] =
      Array.tabulate(n) { i =>
        val row = new Array[Long]((n + 63) >>> 6)
        for (j <- 0 until n if related(ps(i), ps(j))) row(j >>> 6) |= 1L << j
        row
      }

    /** `⊥p`: bit j of row i is set iff patterns i and j have disjoint match sets. */
    val disjoint: Array[Array[Long]] = rows(_ disjointWith _)

    /** `⪯p`: bit j of row i is set iff pattern j generalizes pattern i, j ≠ i. */
    val generalizedBy: Array[Array[Long]] = {
      val g = rows(_ generalizedBy _)
      for (i <- 0 until n) g(i)(i >>> 6) &= ~(1L << i)
      g
    }

    def has(row: Array[Long], j: Int): Boolean = ((row(j >>> 6) >>> j) & 1L) != 0L

    /** The info sum of `members`, in member order. */
    def infoSum(members: Array[Int]): Double = members.foldLeft(0.0)(_ + info(_))

    /** Greedy `S_lb` of `members`, clamped to 1: scan by descending cp
      * (stable), keep a pattern iff disjoint from all kept ones (paper
      * footnote 4 sanctions a greedy heuristic for the weighted-clique
      * problem).
      */
    def lowerBound(members: Array[Int]): Double =
      math.min(1.0, new Prefix(this, members.init).lowerSum(members.last))

    /** `S_ub` of `members`, clamped to 1: the cp sum of the members no other
      * member generalizes.
      */
    def upperBound(members: Array[Int]): Double =
      math.min(1.0, new Prefix(this, members.init).upperSum(members.last))

    /** Exact `S_lb` of `members`, clamped to 1: the max-weight pairwise
      * disjoint subset, by enumerating subset masks against the `⊥p` rows
      * and summing each subset in member order. Above 15 members (2^15
      * subsets) it is the greedy [[lowerBound]].
      */
    def exactLowerBound(members: Array[Int]): Double = {
      val m = members.length
      if (m > 15) return lowerBound(members)
      // Bit b of compatible(a): member b is member a or disjoint from it.
      val compatible = Array.tabulate(m) { a =>
        (0 until m).foldLeft(0)((bits, b) =>
          if (a == b || has(disjoint(members(a)), members(b))) bits | (1 << b) else bits)
      }
      var best = 0.0
      var mask = 1
      while (mask < (1 << m)) {
        var ok  = true
        var sum = 0.0
        var a   = 0
        while (ok && a < m) {
          if (((mask >>> a) & 1) != 0) {
            ok = (mask & ~compatible(a)) == 0
            sum += cp(members(a))
          }
          a += 1
        }
        if (ok) best = math.max(best, sum)
        mask += 1
      }
      math.min(1.0, best)
    }
  }

  /** The bound state of a member sequence, from which the unclamped `S_lb`
    * and `S_ub` sums of the sequence with one more pattern appended follow
    * by row lookups. Sums run in the order the bounds' definitions take
    * them: the greedy `S_lb` in stable descending-cp order, `S_ub` and
    * info in sequence order.
    */
  private final class Prefix(rel: Relations, val members: Array[Int]) {
    val infoSum: Double = rel.infoSum(members)
    private val mask = {
      val m = new Array[Long]((rel.n + 63) >>> 6)
      members.foreach(j => m(j >>> 6) |= 1L << j)
      m
    }
    private def meetsMembers(row: Array[Long]): Boolean = {
      var w = 0
      while (w < mask.length && (row(w) & mask(w)) == 0L) w += 1
      w < mask.length
    }
    // The members of S_ub, and the members in the greedy bound's scan order.
    private val ub   = members.filterNot(j => meetsMembers(rel.generalizedBy(j)))
    private val byCp = members.sortBy(j => -rel.cp(j))
    private val kept = new Array[Int](members.length + 1)

    /** The greedy `S_lb` sum of the members and `i`. */
    def lowerSum(i: Int): Double = {
      // A stable sort places the appended pattern after every member with
      // at least its cp.
      var at = 0
      while (at < byCp.length && rel.cp(byCp(at)) >= rel.cp(i)) at += 1
      var nKept = 0
      var sum   = 0.0
      var p     = 0
      while (p <= byCp.length) {
        val m  = if (p < at) byCp(p) else if (p == at) i else byCp(p - 1)
        val dm = rel.disjoint(m)
        var q  = 0
        while (q < nKept && rel.has(dm, kept(q))) q += 1
        if (q == nKept) { kept(nKept) = m; nKept += 1; sum += rel.cp(m) }
        p += 1
      }
      sum
    }

    /** The `S_ub` sum of the members and `i`: a member stays unless `i`
      * generalizes it, and `i` joins unless a member generalizes it.
      */
    def upperSum(i: Int): Double = {
      var sum = 0.0
      var a   = 0
      while (a < ub.length) {
        val j = ub(a)
        if (!rel.has(rel.generalizedBy(j), i)) sum += rel.cp(j)
        a += 1
      }
      if (!meetsMembers(rel.generalizedBy(i))) sum += rel.cp(i)
      sum
    }
  }

  private final class Cand(
      val idxs: Array[Int],   // ascending pool indices
      val cpLow: Double,
      val cpHigh: Double,     // the S_ub sum, clamped to 1
      val sumInfo: Double,
      val scHigh: Double,     // admissible upper bound on any completion's score
      val scLow: Double,      // only meaningful when complete
  )

  /** Compute the top-k summary from scored patterns.
    *
    * @param maxPatterns engineering guard: keep only the best candidates
    *                    (by harmonic(cp, info), then cp) before searching
    * @param maxPops     branch-and-bound budget before heuristic fallback
    */
  def summarize(
      all: Vector[Pattern],
      k: Int,
      maxPatterns: Int = 300,
      maxPops: Long = 3000L,
  ): Summary = search(all, k, maxPatterns, maxPops, frontier = 100000)

  /** [[summarize]] with a frontier-memory guard: a candidate popped while
    * more than `frontier` are open is not expanded. Its completions go
    * unexamined, so a search that dropped one is never reported optimal.
    *
    * The pool's relations are computed once, after the cut. A popped
    * candidate's [[Prefix]] is built once, and each child's bounds are
    * lookups against it.
    */
  private[summarize] def search(
      all: Vector[Pattern],
      k: Int,
      maxPatterns: Int,
      maxPops: Long,
      frontier: Int,
  ): Summary = {
    require(k >= 1, s"k=$k")
    val rel = new Relations(all.distinct.sorted(rank).take(maxPatterns))
    val n   = rel.n
    if (n == 0) return Summary(Vector.empty, 0, 0, 0, 0, 0, optimal = true, 0)
    if (n <= k) return report(rel, Array.range(0, n), optimal = true, 0)
    val cp   = rel.cp
    val info = rel.info

    // Suffix maxima for admissible completion bounds: any extension of a
    // candidate ending at index l draws from indices > l.
    val maxCpFrom   = Array.fill(n + 1)(0.0)
    val maxInfoFrom = Array.fill(n + 1)(0.0)
    for (i <- n - 1 to 0 by -1) {
      maxCpFrom(i)   = math.max(cp(i), maxCpFrom(i + 1))
      maxInfoFrom(i) = math.max(info(i), maxInfoFrom(i + 1))
    }

    /** The candidate of `base`'s members and `i`, which lies above them all. */
    def mk(base: Prefix, i: Int): Cand = {
      val idxs    = base.members :+ i
      val cpL     = math.min(1.0, base.lowerSum(i))
      val cpH     = math.min(1.0, base.upperSum(i))
      val sumInfo = base.infoSum + info(i)
      if (idxs.length == k) {
        val inf = sumInfo / k
        new Cand(idxs, cpL, cpH, sumInfo,
          Pattern.harmonic(cpH, inf), Pattern.harmonic(cpL, inf))
      } else {
        val miss = k - idxs.length
        val from = i + 1
        val cpHigh  = math.min(1.0, cpH + miss * maxCpFrom(from))
        val infHigh = (sumInfo + miss * maxInfoFrom(from)) / k
        new Cand(idxs, cpL, cpH, sumInfo, Pattern.harmonic(cpHigh, infHigh), 0.0)
      }
    }

    // Greedy incumbent: strong initial pruning bound.
    def greedyComplete(): Cand = {
      var set = Array(0)
      while (set.length < k) {
        val base = new Prefix(rel, set)
        var bestIdx = -1; var bestScore = -1.0
        for (i <- 0 until n if !set.contains(i)) {
          val mid = (math.min(1.0, base.lowerSum(i)) + math.min(1.0, base.upperSum(i))) / 2
          val inf = (base.infoSum + info(i)) / (set.length + 1)
          val s   = Pattern.harmonic(mid, inf)
          if (s > bestScore) { bestScore = s; bestIdx = i }
        }
        set = (set :+ bestIdx).sorted
      }
      mk(new Prefix(rel, set.init), set.last)
    }

    var incumbent = greedyComplete()
    var bestMid: Cand = incumbent
    def mid(c: Cand): Double = {
      val inf = c.sumInfo / k
      (Pattern.harmonic(c.cpLow, inf) + Pattern.harmonic(c.cpHigh, inf)) / 2
    }

    val queue = mutable.PriorityQueue.empty[Cand](Ordering.by(_.scHigh))
    val root  = new Prefix(rel, Array.emptyIntArray)
    (0 until n).foreach(i => queue.enqueue(mk(root, i)))

    var pops    = 0L
    var optimal = false
    var done    = false
    var dropped = false
    while (!done && queue.nonEmpty) {
      val c = queue.dequeue()
      pops += 1
      if (c.scHigh <= incumbent.scLow) { optimal = !dropped; done = true }
      else {
        if (c.idxs.length == k) {
          if (c.scLow > incumbent.scLow) incumbent = c
          if (mid(c) > mid(bestMid)) bestMid = c
        } else if (queue.size > frontier) dropped = true
        else {
          val need = k - c.idxs.length
          val base = new Prefix(rel, c.idxs)
          var i = c.idxs.last + 1
          while (i <= n - need) {
            val child = mk(base, i)
            if (child.scHigh > incumbent.scLow) queue.enqueue(child)
            i += 1
          }
        }
        // Budget bounds total loop iterations regardless of candidate kind.
        if (pops >= maxPops) done = true
      }
    }
    if (queue.isEmpty) optimal = !dropped

    val winner  = if (optimal) incumbent
                  else if (mid(bestMid) > mid(incumbent)) bestMid else incumbent
    report(rel, winner.idxs, optimal, pops) // a complete candidate: k members
  }

  /** The reported summary of the patterns at `idxs` (ascending): the exact
    * `S_lb` from the `⊥p` rows, the `S_ub` bound, the mean info, and the
    * scores they give.
    */
  private def report(rel: Relations, idxs: Array[Int], optimal: Boolean, pops: Long): Summary = {
    val cpL = rel.exactLowerBound(idxs)
    val cpH = rel.upperBound(idxs)
    val inf = rel.infoSum(idxs) / idxs.length
    Summary(idxs.iterator.map(rel.ps).toVector, Pattern.harmonic(cpL, inf),
      Pattern.harmonic(cpH, inf), cpL, cpH, inf, optimal, pops)
  }
}
