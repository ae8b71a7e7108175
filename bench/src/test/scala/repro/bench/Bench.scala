package repro.bench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.datalog.{Catalog, Program, ProvQuestion}
import repro.summarize.{CatalystReference, Pattern, Summarizer}
import scala.jdk.CollectionConverters._

/** Shared helpers for the per-figure benchmark suites: aligned table
  * printing (the "rows the paper reports") and exact-metric evaluation of a
  * summary against a fully enumerated provenance.
  */
object Bench {

  /** Print an aligned table with a title — one per paper figure/table. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println(s"\n== $title ==")
    println(fmt(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
  }

  def timeMs[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run `body` with a wall-clock budget, cancelling its Spark jobs and
    * interrupting its thread on expiry — mirrors the paper's 30-minute
    * experiment timeout (we use a smaller one; timed-out cells are reported
    * as such, like the omitted FULL why-not bars in Fig 6). None means the
    * budget ran out; an exception thrown by `body` is rethrown on the
    * caller's thread.
    */
  def withTimeout[A](spark: SparkSession, seconds: Int)(body: => A): Option[A] = {
    val group  = s"bench-timeout-${System.nanoTime()}"
    @volatile var outcome: Either[Throwable, A] = null
    val worker = new Thread(() => {
      spark.sparkContext.setJobGroup(group, "bench cell", interruptOnCancel = true)
      try outcome = Right(body)
      catch { case e: Throwable => outcome = Left(e) }
      finally spark.sparkContext.clearJobGroup()
    })
    worker.setDaemon(true)
    worker.start()
    worker.join(seconds * 1000L)
    if (worker.isAlive) {
      spark.sparkContext.cancelJobGroup(group)
      worker.interrupt()
      worker.join(30000L)
      None
    } else outcome.fold(e => throw e, Some(_))
  }

  /** A row marking a timed-out cell. */
  def timeoutRow(name: String, seconds: Int): Seq[String] =
    Seq(name, "-", "-", "-", "-", "-", s">${seconds}000", "-", "-")

  def ms(l: Long): String  = l.toString
  def f3(d: Double): String = f"$d%.3f"
  def sci(d: Double): String = f"$d%.2e"

  /** Convert client-side patterns back into a DataFrame with the given
    * derivation schema (variable columns nullable, goal columns boolean) so
    * exact coverage can be measured with `Q_match` against a FULL
    * enumeration.
    */
  def patternsToDf(spark: SparkSession, patterns: Seq[Pattern], schema: StructType): DataFrame = {
    val rows = patterns.map { p =>
      Row.fromSeq(p.args.map(_.orNull) ++ p.goals)
    }
    spark.createDataFrame(rows.asJava, schema)
  }

  /** Exact completeness of a summary measured against the FULL provenance:
    * the fraction of derivations matched by at least one pattern.
    */
  def exactCompleteness(
      spark: SparkSession,
      patterns: Seq[Pattern],
      full: DataFrame,
      varCols: Seq[String],
      goalColNames: Seq[String],
  ): Double = {
    val total = full.count()
    if (total == 0 || patterns.isEmpty) return 0.0
    val nullable = StructType(full.schema.fields.map(_.copy(nullable = true)))
    val pdf  = patternsToDf(spark, patterns, nullable)
    val covered = CatalystReference.renamed(full, "__s_")
      .join(pdf, CatalystReference.matchCondition(varCols, goalColNames, "__s_"), "left_semi")
      .distinct().count()
    covered.toDouble / total
  }

  /** Run the summarizer and flatten the result into a bench row. */
  def run(
      spark: SparkSession,
      name: String,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Summarizer.Config,
  ): (Summarizer.Result, Seq[String]) = {
    val (res, total) = timeMs(Summarizer.summarize(spark, program, catalog, pq, cfg))
    val t = res.times
    (res, Seq(name, sci(res.provEstimate),
      ms(t.sampleMs), ms(t.lcaMs), ms(t.matchMs), ms(t.topkMs), ms(total),
      f3(res.summary.cpLow), f3(res.summary.info)))
  }

  val RunHeader: Seq[String] = Seq("case", "|Prov|est",
    "sample_ms", "lca_ms", "match_ms", "topk_ms", "total_ms", "cp", "info")
}
