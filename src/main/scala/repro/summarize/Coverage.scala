package repro.summarize

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField}
import scala.jdk.CollectionConverters._

/** Completeness estimation (paper §7): a pattern's match count over the
  * rule's sample, under the placeholder-tolerant condition of `Q_match`
  * (goal annotations equal, `X IS NULL ∨ X = S.X` per variable).
  *
  * The paper's `Q_match` is a theta join plus a group-count in the DBMS.
  * Here each goal-vector group of the sample, held on the driver, holds one
  * bitset over its rows per (column, code); a candidate's match count is
  * the popcount of the AND of the bitsets of its constants.
  */
object Coverage {

  /** Match counts over one goal-vector group. NULL has no bitset, so a
    * constant never matches it.
    */
  final class Matcher(val group: GoalGroup) {
    private val words = (group.size + 63) >>> 6
    private val bits: Array[Array[Array[Long]]] = Array.tabulate(group.width) { p =>
      val bs = Array.fill(group.distinct(p))(new Array[Long](words))
      var r = 0
      while (r < group.size) {
        val c = group.rows(r)(p)
        if (c != GoalGroup.Null) bs(c)(r >>> 6) |= 1L << (r & 63)
        r += 1
      }
      bs
    }

    /** The number of the group's rows that candidate codes `c` match. A
      * candidate without constants matches every row.
      */
    def count(c: Array[Int]): Int = {
      val consts = c.indices.collect { case p if c(p) != GoalGroup.Null => bits(p)(c(p)) }.toArray
      if (consts.isEmpty) return group.size
      var n = 0
      var k = 0
      while (k < words) {
        var w = consts(0)(k)
        var m = 1
        while (m < consts.length && w != 0L) { w &= consts(m)(k); m += 1 }
        n += java.lang.Long.bitCount(w)
        k += 1
      }
      n
    }
  }

  /** The patterns of one rule from its LCA candidates per goal-vector
    * group.
    *
    * @param provWeight this rule's estimated share of |Prov(Φ)| — patterns
    *                   of a union's rules are weighted by it so their cp
    *                   values are comparable (paper §5.2, multiple rules)
    * @param sampleCount the rule's sample size (cp denominator)
    */
  def patterns(
      ruleName: String,
      candidates: Seq[(GoalGroup, Seq[Array[Int]])],
      sampleCount: Long,
      provWeight: Double,
  ): Vector[Pattern] = {
    require(sampleCount > 0, "empty sample")
    candidates.toVector.flatMap { case (g, cands) =>
      val m = new Matcher(g)
      cands.map(c =>
        Pattern(ruleName, g.decode(c), g.goals, provWeight * m.count(c).toDouble / sampleCount))
    }
  }

  /** Match counts as a DataFrame: the distinct candidate rows with at least
    * one match, plus `__matches`. A DataFrame view of [[Matcher]]; the
    * summarizer does not use it, nor [[collectPatterns]].
    */
  def matchCounts(candidates: DataFrame, sample: DataFrame,
                  varCols: Seq[String], goalColNames: Seq[String]): DataFrame = {
    val nv = varCols.size
    val sampled  = sample.select((varCols ++ goalColNames).map(col): _*).collect().toSeq
    val matchers = GoalGroup.split(sampled, nv, goalColNames.size).map(g => g.goals -> new Matcher(g)).toMap
    val cands = candidates.select((varCols ++ goalColNames).map(col): _*)
    val rows = cands.collect().distinct.toVector.flatMap { r =>
      val goals = Vector.tabulate(goalColNames.size)(j => r.getBoolean(nv + j))
      for {
        m <- matchers.get(goals)
        c <- m.group.encode(Vector.tabulate(nv)(i => Option(r.get(i))))
        n = m.count(c) if n > 0
      } yield Row.fromSeq(r.toSeq :+ n.toLong)
    }
    val schema = cands.schema.add(StructField("__matches", LongType, nullable = false))
    sample.sparkSession.createDataFrame(rows.asJava, schema)
  }

  /** Collect match-counted candidates into client-side [[Pattern]]s.
    *
    * @param provWeight this rule's estimated share of |Prov(Φ)|
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
