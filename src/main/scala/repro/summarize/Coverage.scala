package repro.summarize

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._

/** Completeness estimation (paper §7): the paper's `Q_match` joins the LCA
  * candidates with the sample on a placeholder-tolerant condition
  * (`X = X ∨ isnull(X)` per variable, goal annotations equal) and counts
  * matches per pattern. The goal-annotation equalities are equi-join keys,
  * so the O(n_S²·n_S) worst case is sharded across goal-vector groups.
  */
object Coverage {

  /** `df` with every column name prefixed, so both sides of a self-join
    * stay apart.
    */
  def renamed(df: DataFrame, prefix: String): DataFrame =
    df.toDF(df.columns.map(prefix + _).toIndexedSeq: _*)

  /** The placeholder-tolerant match condition between a pattern row
    * (unprefixed columns) and a derivation row (columns prefixed by
    * `prefix`): goal annotations equal and `X = S.X ∨ X IS NULL` per
    * variable.
    */
  def matchCondition(varCols: Seq[String], goalColNames: Seq[String], prefix: String): Column = {
    val goalEq = goalColNames.map(g => col(g) === col(s"$prefix$g"))
    val varOk  = varCols.map(v => col(v).isNull || col(v) === col(s"$prefix$v"))
    (goalEq ++ varOk).reduce(_ && _)
  }

  /** Match counts: the candidate columns plus `__matches`. Candidates always
    * have ≥1 match (their LCA generators are in the sample), so an inner
    * join loses nothing.
    */
  def matchCounts(candidates: DataFrame, sample: DataFrame,
                  varCols: Seq[String], goalColNames: Seq[String]): DataFrame = {
    candidates
      .join(renamed(sample, "__s_"), matchCondition(varCols, goalColNames, "__s_"), "inner")
      .groupBy((varCols ++ goalColNames).map(col): _*)
      .agg(count(lit(1)).as("__matches"))
  }

  /** Collect match-counted candidates into client-side [[Pattern]]s.
    *
    * @param provWeight this rule's estimated share of |Prov(Φ)| — patterns
    *                   of a union's rules are weighted by it so their cp
    *                   values are comparable (paper §5.2, multiple rules)
    * @param sampleCount the rule's sample size (cp denominator)
    */
  def collectPatterns(
      ruleName: String,
      counted: DataFrame,
      varCols: Seq[String],
      goalColNames: Seq[String],
      sampleCount: Long,
      provWeight: Double,
  ): Vector[Pattern] = {
    require(sampleCount > 0, "empty sample")
    counted.collect().toVector.map { (r: Row) =>
      val args  = varCols.toVector.map(v => Option(r.get(r.fieldIndex(v))))
      val goals = goalColNames.toVector.map(g => r.getBoolean(r.fieldIndex(g)))
      val m     = r.getLong(r.fieldIndex("__matches"))
      Pattern(ruleName, args, goals, provWeight * m.toDouble / sampleCount)
    }
  }
}
