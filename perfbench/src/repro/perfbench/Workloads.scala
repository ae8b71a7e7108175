package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{Datasets, Queries}
import repro.datalog.{Catalog, Program, ProvQuestion}

/** One benchmark workload: a provenance question over a generated catalog.
  *
  * @param catalog       the data generator; it takes no seed, so the
  *                      workload seed varies the sampler draws, not the data
  * @param fixedQuestions questions (cold one included) every run answers,
  *                      whatever `--seconds` is; the quality and heap metrics
  *                      are taken over these, so they do not depend on how
  *                      many questions fit in the run
  * @param budgetS       wall-clock budget of one question; an overrun is
  *                      cancelled and counted as a timeout
  */
final case class Workload(
    name: String,
    program: Program,
    question: ProvQuestion,
    catalog: SparkSession => Catalog,
    nS: Int,
    k: Int,
    fixedQuestions: Int,
    budgetS: Double,
) {
  /** Relations the program reads: the only ones set-up materializes. */
  def relations: Seq[String] = program.rules.flatMap(_.atoms.map(_.relation)).distinct

  /** Sampler seed of question `i` under workload seed `seed`. */
  def questionSeed(seed: Long, i: Int): Long = seed * 1000003L + i
}

/** The workloads and why each is in the benchmark (see WORKLOADS.md). */
object Workloads {

  val all: Seq[Workload] = Seq(
    // The paper's headline case: a why-not question over a union of three
    // rules. Cost is per-Spark-job latency in sampling (domains, Q_X/Q_bind,
    // Q_der, annotation), repeated per rule.
    Workload("whynot-union", Queries.r4, Queries.whynotR4,
      Datasets.movies(_, 5000L), nS = 1000, k = 3, fixedQuestions = 2, budgetS = 90),
    // Why provenance is captured exactly (no why-not sampler) and the
    // client-side top-k search runs to its pop budget: exercises the
    // search, bypasses sampling.
    Workload("why-topk", Queries.r1, Queries.whyR1,
      Datasets.license(_, 10000L), nS = 1000, k = 10, fixedQuestions = 8, budgetS = 60),
    // The paper's largest sample size, where Q_lca/Q_match are bound by
    // rows, not by job count.
    Workload("whynot-s10k", Queries.r1, Queries.whynotR1,
      Datasets.license(_, 10000L), nS = 10000, k = 3, fixedQuestions = 2, budgetS = 120),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}"))
}
