package repro.summarize

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** LCA pattern-candidate generation (paper §6, adapted from El Gebaly et
  * al. [9]): generalize every pair of sampled derivations that agree on
  * their goal annotations, keeping constants where the pair agrees and
  * introducing a placeholder (NULL) where it disagrees. Pairing a
  * derivation with itself keeps the all-constant patterns, so every
  * candidate matches at least one sampled derivation.
  *
  * Implemented as the paper's `Q_lca` self-join; goal columns are the
  * equi-join keys so Catalyst plans a shuffle join, not a cartesian.
  */
object Lca {

  /** Candidate patterns for one rule's sample: same schema as the sample
    * (variable columns, NULL = placeholder, plus goal columns), distinct. A
    * ground rule has no variable columns, so its candidates are its
    * distinct goal vectors.
    */
  def candidates(sample: DataFrame, varCols: Seq[String], goalColNames: Seq[String]): DataFrame = {
    val right = Coverage.renamed(sample, "__r_")
    val cond  = goalColNames.map(g => col(g) === col(s"__r_$g")).reduce(_ && _)
    val proj =
      varCols.map(v => when(col(v) === col(s"__r_$v"), col(v)).as(v)) ++
        goalColNames.map(col)
    sample.join(right, cond, "inner").select(proj: _*).distinct()
  }
}
