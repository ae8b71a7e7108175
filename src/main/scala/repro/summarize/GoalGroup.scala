package repro.summarize

import org.apache.spark.sql.Row
import scala.collection.mutable

/** The rows of a rule's sample, held on the driver, that share one
  * goal-annotation vector, dictionary-encoded per variable column. `Q_lca`
  * pairs only rows with equal goal annotations and `Q_match` requires them
  * equal, so both run per group on the codes.
  *
  * A column's values get codes 0, 1, … in order of first occurrence, keyed by
  * Java `equals`. NULL gets [[GoalGroup.Null]], a code that equals nothing,
  * not even itself, as under SQL `=`; in a candidate pattern the same code
  * is the placeholder.
  *
  * @param rows one array of codes per sampled derivation, a slot per column
  * @param dict per column, the value of each code
  */
final class GoalGroup private (
    val goals: Vector[Boolean],
    val rows: Array[Array[Int]],
    dict: Array[Array[Any]],
    index: Array[java.util.HashMap[Any, Int]],
) {

  def size: Int  = rows.length
  def width: Int = dict.length

  /** The number of distinct non-NULL values of column `p`. */
  def distinct(p: Int): Int = dict(p).length

  /** The pattern arguments of candidate codes `c`. */
  def decode(c: Array[Int]): Vector[Option[Any]] =
    Vector.tabulate(width)(p => if (c(p) == GoalGroup.Null) None else Some(dict(p)(c(p))))

  /** The codes of pattern arguments `args` (`None` = placeholder), or `None`
    * when a constant occurs in no row of the group, so nothing matches it.
    */
  def encode(args: Seq[Option[Any]]): Option[Array[Int]] = {
    val c = args.zipWithIndex.map {
      case (None, _)    => GoalGroup.Null
      case (Some(v), p) => index(p).getOrDefault(v, GoalGroup.Unknown)
    }
    Option.unless(c.contains(GoalGroup.Unknown))(c.toArray)
  }
}

object GoalGroup {

  /** The code of NULL, and of a placeholder. */
  val Null: Int = -1

  private val Unknown: Int = -2

  /** Split a rule's sampled rows — per row `nv` variable values, then `ng`
    * goal flags — by goal vector, in order of first occurrence.
    */
  def split(rows: Seq[Row], nv: Int, ng: Int): Vector[GoalGroup] = {
    val byGoals = mutable.LinkedHashMap.empty[Vector[Boolean], mutable.ArrayBuffer[Array[Any]]]
    rows.foreach { r =>
      val goals = Vector.tabulate(ng)(j => r.getBoolean(nv + j))
      byGoals.getOrElseUpdate(goals, mutable.ArrayBuffer.empty) += Array.tabulate(nv)(r.get)
    }
    byGoals.map { case (goals, values) => encoded(goals, values, nv) }.toVector
  }

  private def encoded(goals: Vector[Boolean], values: Iterable[Array[Any]], width: Int): GoalGroup = {
    val index = Array.fill(width)(new java.util.HashMap[Any, Int]())
    val dict  = Array.fill(width)(mutable.ArrayBuffer.empty[Any])
    val rows = values.map { vs =>
      Array.tabulate(width) { p =>
        val v = vs(p)
        if (v == null) Null
        else index(p).computeIfAbsent(v, _ => { dict(p) += v; dict(p).size - 1 })
      }
    }
    new GoalGroup(goals, rows.toArray, dict.map(_.toArray), index)
  }
}
