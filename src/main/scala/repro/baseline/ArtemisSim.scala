package repro.baseline

import org.apache.spark.sql.{Row, SparkSession}
import repro.datalog._
import repro.prov.{FullWhyNot, WhyProv}
import repro.summarize.Pattern

/** All-derivations baseline standing in for Artemis [13] (paper §9.3).
  *
  * The original Artemis is a closed VM artifact that represents the set of
  * missing-answer explanations as c-tables and calls a constraint solver.
  * We reproduce its *algorithmic shape* honestly (DESIGN.md, substitutions):
  *
  *  - it enumerates the complete derivation space (no sampling) — genuinely
  *    O(|D|^n), which is why it falls over as data grows, exactly like the
  *    timeouts in Fig. 12a;
  *  - it collects all derivations to the client and folds each
  *    goal-annotation group into one maximally-general c-table-style
  *    pattern (component-wise: keep a constant only when *all* derivations
  *    in the group agree). On the paper's CRIME query this yields the
  *    all-placeholder top-1 explanation the authors observed.
  */
object ArtemisSim {

  /** C-table-style explanations, most-covering group first, with the
    * fraction of the enumerated provenance each covers.
    */
  def explain(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
  ): Vector[(Pattern, Double)] = {
    val perRule = program.rules.flatMap { r =>
      val dfOpt = pq.qtype match {
        case Whynot => FullWhyNot.derivations(spark, program, r, catalog, pq.tuple)
        case Why    => WhyProv.derivations(r, catalog, pq.tuple)
      }
      dfOpt.map { df =>
        val nVars = df.columns.length - r.atoms.size // goal columns come last
        val rows  = df.collect() // all-derivations: the whole space, client-side
        (r.name, nVars, rows)
      }
    }
    val total = perRule.map(_._3.length.toLong).sum.toDouble
    if (total == 0) return Vector.empty

    perRule.flatMap { case (ruleName, nVars, rows) =>
      // Group by goal annotations; fold each group into its LCA (the most
      // general pattern a c-table over the group collapses to).
      rows.groupBy(r => (nVars until r.size).map(r.getBoolean).toVector).map {
        case (goals, group) =>
          val folded = group
            .map(r => (0 until nVars).map(i => Option(r.get(i))).toVector)
            .reduce((a, b) => a.zip(b).map { case (x, y) => if (x == y) x else None })
          val cov = group.length / total
          (Pattern(ruleName, folded, goals, cov), cov)
      }
    }.sortBy(-_._2).toVector
  }
}
