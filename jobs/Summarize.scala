package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.{Datasets, Queries}
import repro.datalog.{Catalog, Program, ProvQuestion}
import repro.summarize.Summarizer

/** spark-submit entrypoint: compute a top-k provenance summary for one of
  * the paper's (query, provenance-question) pairs.
  *
  * Usage: Summarize <case> [rows=10000] [nS=1000] [k=3]
  * where <case> is one of: whyR1 whynotR1 whyR2 whynotR2 ... whynotAirbnb
  */
object Summarize {

  /** Named experiment cases: (program, catalog builder, question). */
  def cases(spark: SparkSession, rows: Long): Map[String, (Program, Catalog, ProvQuestion)] = {
    lazy val lic = Datasets.license(spark, rows)
    lazy val mov = Datasets.movies(spark, rows)
    lazy val ml  = Datasets.movielens(spark, rows)
    lazy val cri = Datasets.crimes(spark, rows)
    lazy val db  = Datasets.dblp(spark, rows)
    Map(
      "whyR1"    -> ((Queries.r1, lic, Queries.whyR1)),
      "whynotR1" -> ((Queries.r1, lic, Queries.whynotR1)),
      "whyR2"    -> ((Queries.r2, lic, Queries.whyR2)),
      "whynotR2" -> ((Queries.r2, lic, Queries.whynotR2)),
      "whyR3"    -> ((Queries.r3, mov, Queries.whyR3)),
      "whynotR3" -> ((Queries.r3, mov, Queries.whynotR3)),
      "whyR4"    -> ((Queries.r4, mov, Queries.whyR4)),
      "whynotR4" -> ((Queries.r4, mov, Queries.whynotR4)),
      "whyR5"    -> ((Queries.r5, cri, Queries.whyR5)),
      "whynotR5" -> ((Queries.r5, cri, Queries.whynotR5)),
      "whyR6"    -> ((Queries.r6, cri, Queries.whyR6)),
      "whynotR6" -> ((Queries.r6, cri, Queries.whynotR6)),
      "whyR7"    -> ((Queries.r7, ml, Queries.whyR7)),
      "whynotR7" -> ((Queries.r7, ml, Queries.whynotR7)),
      "whyR8"    -> ((Queries.r8, ml, Queries.whyR8)),
      "whynotR8" -> ((Queries.r8, ml, Queries.whynotR8)),
      "whynotR9" -> ((Queries.r9, db, Queries.whynotR9)),
      "whyR11"   -> ((Queries.r11, mov, Queries.whyR11)),
      "whynotR11" -> ((Queries.r11, mov, Queries.whynotR11)),
      "whyR12"   -> ((Queries.r12, mov, Queries.whyR12)),
      "whynotR12" -> ((Queries.r12, mov, Queries.whynotR12)),
      "whynotAirbnb" -> ((Queries.airbnb, Datasets.airbnb(spark), Queries.whynotAirbnb)),
    )
  }

  def main(args: Array[String]): Unit = {
    val caseName = args.headOption.getOrElse("whynotAirbnb")
    val rows     = args.lift(1).map(_.toLong).getOrElse(10000L)
    val nS       = args.lift(2).map(_.toInt).getOrElse(1000)
    val k        = args.lift(3).map(_.toInt).getOrElse(3)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"summarize-$caseName")
      // The tests' and benchmarks' settings, so a CLI run measures the same plans.
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val all = cases(spark, rows)
      val (program, catalog, question) = all.getOrElse(caseName,
        sys.error(s"unknown case $caseName; one of ${all.keys.toSeq.sorted.mkString(", ")}"))
      val res = Summarizer.summarize(spark, program, catalog, question,
        Summarizer.Config(nS = nS, k = k))
      println(s"== $caseName over $rows rows, nS=$nS, k=$k ==")
      println(f"estimated |Prov| = ${res.provEstimate}%.3e; " +
        s"candidates = ${res.allPatterns.size}; times(ms) = ${res.times}")
      println(f"summary score ∈ [${res.summary.scLow}%.4f, ${res.summary.scHigh}%.4f] " +
        f"cp ∈ [${res.summary.cpLow}%.4f, ${res.summary.cpHigh}%.4f] info=${res.summary.info}%.4f")
      res.summary.patterns.foreach(p => println(s"  $p"))
    } finally spark.stop()
  }
}
