package repro.summarize

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType
import scala.jdk.CollectionConverters._

/** LCA pattern-candidate generation (paper §6, adapted from El Gebaly et
  * al. [9]): generalize every pair of sampled derivations that agree on
  * their goal annotations, keeping constants where the pair agrees and
  * introducing a placeholder where it disagrees. Pairing a derivation with
  * itself keeps the all-constant patterns, so every candidate matches at
  * least one sampled derivation.
  *
  * The paper's `Q_lca` is a self-join in the DBMS. Here the pairs of each
  * goal-vector group of the sample, which the sampler has already collected
  * to the driver, are generalized there, on dictionary codes.
  */
object Lca {

  /** The distinct LCAs of every pair `i ≤ j` of `g`'s rows, as codes
    * ([[GoalGroup.Null]] = placeholder), in order of first occurrence. A
    * group without variable columns has one candidate, the empty pattern.
    */
  def generalize(g: GoalGroup): Vector[Array[Int]] = {
    val rows  = g.rows
    val seen  = new java.util.HashSet[Codes]()
    val out   = Vector.newBuilder[Array[Int]]
    val probe = new Codes(new Array[Int](g.width))
    var i = 0
    while (i < rows.length) {
      // The pairs run on the caller's thread, outside any Spark job, so a
      // job cancellation cannot stop them; an interrupt does.
      if (Thread.interrupted()) throw new InterruptedException("LCA candidate generation interrupted")
      val a = rows(i)
      var j = i
      while (j < rows.length) {
        val b = rows(j)
        var p = 0
        while (p < a.length) {
          probe.codes(p) = if (a(p) == b(p)) a(p) else GoalGroup.Null
          p += 1
        }
        probe.rehash()
        if (!seen.contains(probe)) {
          val c = probe.codes.clone()
          seen.add(new Codes(c))
          out += c
        }
        j += 1
      }
      i += 1
    }
    out.result()
  }

  /** An array of codes hashed by content. The probe's array is overwritten
    * per pair and rehashed; only arrays not seen before are copied.
    */
  private final class Codes(val codes: Array[Int]) {
    private var hash = java.util.Arrays.hashCode(codes)
    def rehash(): Unit = hash = java.util.Arrays.hashCode(codes)
    override def hashCode: Int = hash
    override def equals(o: Any): Boolean = o match {
      case that: Codes => java.util.Arrays.equals(codes, that.codes)
      case _           => false
    }
  }

  /** Candidate patterns for one rule's sample as a DataFrame: the sample's
    * variable columns (NULL = placeholder) and goal columns, distinct. A
    * ground rule has no variable columns, so its candidates are its
    * distinct goal vectors. A DataFrame view of [[generalize]]; the
    * summarizer does not use it.
    */
  def candidates(sample: DataFrame, varCols: Seq[String], goalColNames: Seq[String]): DataFrame = {
    val cols = sample.select((varCols ++ goalColNames).map(col): _*)
    val rows = GoalGroup.split(cols.collect().toSeq, varCols.size, goalColNames.size).flatMap { g =>
      generalize(g).map(c => Row.fromSeq(g.decode(c).map(_.orNull) ++ g.goals))
    }
    val placeholders = StructType(cols.schema.fields.map(f =>
      if (varCols.contains(f.name)) f.copy(nullable = true) else f))
    sample.sparkSession.createDataFrame(rows.asJava, placeholders)
  }
}
