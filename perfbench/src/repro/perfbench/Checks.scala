package repro.perfbench

import org.apache.spark.sql.functions.col
import repro.datalog.{ProvQuestion, Why}
import repro.summarize.{Pattern, Summarizer, TopK}

/** Output checks run on every answered question, outside its timed region.
  * Each returns the violations found; an empty list means the answer passed.
  */
object Checks {

  private val Eps = 1e-9

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= Eps * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Collected sample of one rule: (variable values, goal annotation) rows. */
  final case class RuleRows(ruleName: String, weight: Double, count: Long,
                            rows: Vector[(Vector[Any], Vector[Boolean])]) {
    private lazy val byGoals = rows.groupBy(_._2)
    private lazy val byConst = rows.flatMap { case r @ (args, goals) =>
      args.indices.map(j => ((goals, j, args(j)), r))
    }.groupMap(_._1)(_._2)

    /** Sampled derivations `p` matches, by `Pattern.matches`; the indexes
      * only narrow the rows it is called on.
      */
    def matched(p: Pattern): Int = {
      val consts = p.args.indices.filter(p.args(_).isDefined)
      val cands =
        if (consts.isEmpty) byGoals.getOrElse(p.goals, Vector.empty)
        else consts.map(j => byConst.getOrElse((p.goals, j, p.args(j).get), Vector.empty)).minBy(_.size)
      cands.count { case (args, goals) => p.matches(args, goals) }
    }
  }

  /** Collect every rule's (cached) sample. Call before the caches are cleared. */
  def collectSamples(res: Summarizer.Result): Vector[RuleRows] = {
    val total = res.ruleSamples.map(_.provEstimate).sum
    res.ruleSamples.map { s =>
      val nv = s.varCols.size
      val rows = s.sample.select((s.varCols ++ s.goalColNames).map(col): _*).collect().toVector
        .map(r => (Vector.tabulate(nv)(r.get), Vector.tabulate(s.goalColNames.size)(j => r.getBoolean(nv + j))))
      RuleRows(s.rule.name, s.provEstimate / total, s.sampleCount, rows)
    }
  }

  def answer(pq: ProvQuestion, k: Int, res: Summarizer.Result, samples: Vector[RuleRows]): Vector[String] = {
    val s   = res.summary
    val out = Vector.newBuilder[String]
    if (!(0.0 <= s.cpLow && s.cpLow <= s.cpHigh + Eps && s.cpHigh <= 1.0 + Eps))
      out += f"cp bounds out of order: 0 <= ${s.cpLow}%.6f <= ${s.cpHigh}%.6f <= 1"
    if (s.scLow > s.scHigh + Eps)
      out += f"score bounds out of order: ${s.scLow}%.6f > ${s.scHigh}%.6f"
    if (s.patterns.size > k) out += s"${s.patterns.size} patterns returned for k=$k"
    val all = res.allPatterns.toSet
    s.patterns.filterNot(all).foreach(p => out += s"summary pattern not among the candidates: $p")
    if (pq.qtype == Why)
      s.patterns.filterNot(_.goals.forall(identity)).foreach(p => out += s"why pattern with a failed goal: $p")

    val byRule = samples.map(r => r.ruleName -> r).toMap
    samples.filter(r => r.rows.size.toLong != r.count).foreach(r =>
      out += s"rule ${r.ruleName}: ${r.rows.size} sample rows collected, sampleCount=${r.count}")
    s.patterns.filterNot(p => byRule.get(p.ruleName).exists(_.matched(p) > 0))
      .foreach(p => out += s"summary pattern matches no sampled derivation: $p")
    // Cross-check of Q_match: recompute every candidate's cp client-side.
    res.allPatterns.foreach { p =>
      byRule.get(p.ruleName) match {
        case Some(r) =>
          val cp = r.weight * r.matched(p) / r.count
          if (!close(cp, p.cp)) out += f"cp of $p recomputed as $cp%.9f"
        case None => out += s"pattern of unknown rule: $p"
      }
    }
    out.result()
  }

  /** The traced pipeline must reproduce `Summarizer.summarize` exactly. */
  def sameSummary(untraced: TopK.Summary, traced: TopK.Summary): Option[String] =
    Option.when(untraced != traced)(s"traced summary differs: untraced=$untraced traced=$traced")
}
