package repro.summarize

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.sampling.BatchSampler

/** The paper's relational `Q_lca` and `Q_match` (§6–7) as Catalyst joins,
  * the reference the driver-side kernel (`Lca.generalize`,
  * `Coverage.Matcher`) is tested against.
  */
object CatalystReference {

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

  /** `Q_lca`: the self-join on equal goal annotations, `when(X = r.X, X)`
    * per variable, distinct.
    */
  def candidates(sample: DataFrame, varCols: Seq[String], goalColNames: Seq[String]): DataFrame = {
    val right = renamed(sample, "__r_")
    val cond  = goalColNames.map(g => col(g) === col(s"__r_$g")).reduce(_ && _)
    val proj =
      varCols.map(v => when(col(v) === col(s"__r_$v"), col(v)).as(v)) ++
        goalColNames.map(col)
    sample.join(right, cond, "inner").select(proj: _*).distinct()
  }

  /** `Q_match`: the theta join of candidates and sample, counted per
    * candidate into `__matches`.
    */
  def matchCounts(candidates: DataFrame, sample: DataFrame,
                  varCols: Seq[String], goalColNames: Seq[String]): DataFrame =
    candidates
      .join(renamed(sample, "__s_"), matchCondition(varCols, goalColNames, "__s_"), "inner")
      .groupBy((varCols ++ goalColNames).map(col): _*)
      .agg(count(lit(1)).as("__matches"))

  /** One rule's patterns through the joins. */
  def patterns(s: BatchSampler.RuleSample, provWeight: Double): Vector[Pattern] =
    Coverage.collectPatterns(s.rule.name,
      matchCounts(candidates(s.sample, s.varCols, s.goalColNames), s.sample, s.varCols, s.goalColNames),
      s.varCols, s.goalColNames, s.sampleCount, provWeight)

  /** The pool of `Summarizer.patterns` through the joins. */
  def pool(samples: Seq[BatchSampler.RuleSample]): Vector[Pattern] = {
    val totalProv = samples.map(_.provEstimate).sum
    samples.toVector.flatMap(s => patterns(s, s.provEstimate / totalProv))
  }

  /** Patterns as a multiset of (rule, args, goals, cp). */
  def multiset(ps: Seq[Pattern]): Map[Pattern, Int] = ps.groupBy(identity).view.mapValues(_.size).toMap
}
