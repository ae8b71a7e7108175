package repro.summarize

import scala.collection.mutable
import repro.summarize.TopK.Summary

/** The top-k search on `Pattern` objects: every candidate's bounds come from
  * `disjointWith`/`generalizedBy` calls on its members. `TopK.search` must
  * return the same `Summary`, bit for bit, from its precomputed relations.
  */
object TopKReference {

  /** Greedy max-weight pairwise-disjoint subset — a valid (possibly loose)
    * `S_lb`: scan by descending cp, keep a pattern iff disjoint from all
    * kept ones (paper footnote 4 sanctions a greedy heuristic for the
    * weighted-clique problem).
    */
  def cpLowerBound(ps: Seq[Pattern]): Double = {
    val kept = mutable.ArrayBuffer.empty[Pattern]
    ps.sortBy(-_.cp).foreach { p =>
      if (kept.forall(q => p.disjointWith(q))) kept += p
    }
    math.min(1.0, kept.map(_.cp).sum)
  }

  /** Exact `S_lb` by subset enumeration — used for the reported bounds of
    * the returned summary (2^|S| with |S| = k, fine for k ≤ ~15).
    */
  def cpLowerBoundExact(ps: Seq[Pattern]): Double = {
    if (ps.size > 15) return cpLowerBound(ps)
    val n = ps.size
    val disjoint = Array.tabulate(n, n)((i, j) => i == j || ps(i).disjointWith(ps(j)))
    var best = 0.0
    for (mask <- 1 until (1 << n)) {
      val members = (0 until n).filter(i => (mask & (1 << i)) != 0)
      val ok = members.combinations(2).forall { case Seq(i, j) => disjoint(i)(j) }
      if (ok) best = math.max(best, members.map(ps(_).cp).sum)
    }
    math.min(1.0, best)
  }

  /** `S_ub`: drop patterns generalized by another member; the remaining cp
    * sum bounds cp(S) from above.
    */
  def cpUpperBound(ps: Seq[Pattern]): Double = {
    val ub = ps.zipWithIndex.filterNot { case (p, i) =>
      ps.zipWithIndex.exists { case (q, j) => j != i && p.generalizedBy(q) }
    }
    math.min(1.0, ub.map(_._1.cp).sum)
  }

  private final case class Cand(
      idxs: Vector[Int],      // ascending pattern indices
      cpLow: Double,
      cpHigh: Double,         // cpUpperBound: the S_ub sum, clamped to 1
      sumInfo: Double,
      scHigh: Double,         // admissible upper bound on any completion's score
      scLow: Double,          // only meaningful when complete
  )

  def search(
      all: Vector[Pattern],
      k: Int,
      maxPatterns: Int,
      maxPops: Long,
      frontier: Int,
  ): Summary = {
    require(k >= 1, s"k=$k")
    val ps = all.distinct.sorted(TopK.rank).take(maxPatterns)
    val n = ps.size
    if (n == 0) return Summary(Vector.empty, 0, 0, 0, 0, 0, optimal = true, 0)
    if (n <= k) return report(ps, optimal = true, 0)

    // Suffix maxima for admissible completion bounds: any extension of a
    // candidate ending at index l draws from indices > l.
    val maxCpFrom   = Array.fill(n + 1)(0.0)
    val maxInfoFrom = Array.fill(n + 1)(0.0)
    for (i <- n - 1 to 0 by -1) {
      maxCpFrom(i)   = math.max(ps(i).cp, maxCpFrom(i + 1))
      maxInfoFrom(i) = math.max(ps(i).info, maxInfoFrom(i + 1))
    }

    def mk(idxs: Vector[Int]): Cand = {
      val members = idxs.map(ps)
      val cpL = cpLowerBound(members)
      val cpH = cpUpperBound(members)
      val sumInfo = members.map(_.info).sum
      if (idxs.size == k) {
        val inf = sumInfo / k
        Cand(idxs, cpL, cpH, sumInfo,
          Pattern.harmonic(cpH, inf), Pattern.harmonic(cpL, inf))
      } else {
        val miss = k - idxs.size
        val from = idxs.last + 1
        val cpHigh  = math.min(1.0, cpH + miss * maxCpFrom(from))
        val infHigh = (sumInfo + miss * maxInfoFrom(from)) / k
        Cand(idxs, cpL, cpH, sumInfo, Pattern.harmonic(cpHigh, infHigh), 0.0)
      }
    }

    // Greedy incumbent: strong initial pruning bound.
    def greedyComplete(): Cand = {
      var set = Vector(0)
      while (set.size < k) {
        var bestIdx = -1; var bestScore = -1.0
        for (i <- 0 until n if !set.contains(i)) {
          val members = (set :+ i).map(ps)
          val mid = (cpLowerBound(members) + cpUpperBound(members)) / 2
          val inf = members.map(_.info).sum / members.size
          val s   = Pattern.harmonic(mid, inf)
          if (s > bestScore) { bestScore = s; bestIdx = i }
        }
        set = (set :+ bestIdx).sorted
      }
      mk(set)
    }

    var incumbent = greedyComplete()
    var bestMid: Cand = incumbent
    def mid(c: Cand): Double = {
      val inf = c.sumInfo / k
      (Pattern.harmonic(c.cpLow, inf) + Pattern.harmonic(c.cpHigh, inf)) / 2
    }

    val queue = mutable.PriorityQueue.empty[Cand](Ordering.by(_.scHigh))
    (0 until n).foreach(i => queue.enqueue(mk(Vector(i))))

    var pops    = 0L
    var optimal = false
    var done    = false
    var dropped = false
    while (!done && queue.nonEmpty) {
      val c = queue.dequeue()
      pops += 1
      if (c.scHigh <= incumbent.scLow) { optimal = !dropped; done = true }
      else {
        if (c.idxs.size == k) {
          if (c.scLow > incumbent.scLow) incumbent = c
          if (mid(c) > mid(bestMid)) bestMid = c
        } else if (queue.size > frontier) dropped = true
        else {
          val need = k - c.idxs.size
          var i = c.idxs.last + 1
          while (i <= n - need) {
            val child = mk(c.idxs :+ i)
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
    report(winner.idxs.map(ps), optimal, pops) // a complete candidate: k members
  }

  /** The reported summary of `members`: the exact `S_lb` and `S_ub` bounds,
    * the mean info, and the scores they give.
    */
  private def report(members: Vector[Pattern], optimal: Boolean, pops: Long): Summary = {
    val cpL = cpLowerBoundExact(members)
    val cpH = cpUpperBound(members)
    val inf = members.map(_.info).sum / members.size
    Summary(members, Pattern.harmonic(cpL, inf), Pattern.harmonic(cpH, inf),
      cpL, cpH, inf, optimal, pops)
  }
}
