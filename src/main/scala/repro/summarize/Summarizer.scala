package repro.summarize

import org.apache.spark.sql.SparkSession
import repro.datalog._
import repro.sampling.BatchSampler

/** End-to-end provenance summarization (paper §4): sampling → LCA pattern
  * candidates → completeness estimation → top-k best-first search.
  *
  * For multi-rule (union) queries, sampling/candidates/estimation run per
  * rule; the top-k is selected from the union of all rules' patterns, with
  * each rule's pattern completeness weighted by the rule's estimated share
  * of |Prov(Φ)| so cross-rule cp values are comparable (paper §5.2,
  * "Queries With Multiple Rules").
  */
object Summarizer {

  /** Wall-clock per pipeline stage, in milliseconds — the unit the paper's
    * runtime figures break down by. `sampleMs` covers drawing the samples
    * and collecting them, `lcaMs` splitting them by goal vector and
    * generating the candidates, `matchMs` counting their matches.
    */
  final case class StageTimes(sampleMs: Long, lcaMs: Long, matchMs: Long, topkMs: Long)

  final case class Result(
      summary: TopK.Summary,
      allPatterns: Vector[Pattern],
      ruleSamples: Vector[BatchSampler.RuleSample],
      times: StageTimes,
  ) {
    /** Estimated |Prov(Φ)| — the sum of per-rule estimates. */
    def provEstimate: Double = ruleSamples.map(_.provEstimate).sum
  }

  final case class Config(
      nS: Int = 1000,
      k: Int = 3,
      pSuccess: Double = 0.999,
      seed: Long = 42L,
      nOSCap: Long = 2_000_000L,
      maxPatterns: Int = 300,
      maxPops: Long = 3000L,
      /** When true, why-not uses FULL enumeration instead of sampling —
        * the paper's FULL baseline (only feasible for tiny domains).
        */
      full: Boolean = false,
  ) {
    /** The sampler settings these summarizer settings stand for. FULL mode
      * never samples: an unbounded `fullEnumFactor` forces why-not
      * enumeration, and an unbounded `nS` keeps every why derivation.
      */
    def sampler: BatchSampler.Config = {
      val base = BatchSampler.Config(nS = nS, pSuccess = pSuccess, seed = seed, nOSCap = nOSCap)
      if (full) base.copy(nS = Int.MaxValue, fullEnumFactor = Double.MaxValue) else base
    }
  }

  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** Stages 2–3 for samples already drawn, on the driver and without a
    * Spark job: LCA candidates per goal-vector group of each rule's rows,
    * then their match counts, as patterns whose cp is weighted by the rule's
    * share of the estimated |Prov(Φ)|. The times hold only `lcaMs` (the split
    * and the candidates) and `matchMs` (the counts).
    */
  def patterns(samples: Vector[BatchSampler.RuleSample]): (Vector[Pattern], StageTimes) = {
    val totalProv = samples.map(_.provEstimate).sum
    val perRule = samples.map { s =>
      val (cands, lcaMs) = timed {
        GoalGroup.split(s.rows, s.varCols.size, s.goalColNames.size).map(g => (g, Lca.generalize(g)))
      }
      val (ps, matchMs) = timed {
        Coverage.patterns(s.rule.name, cands, s.sampleCount, s.provEstimate / totalProv)
      }
      (ps, lcaMs, matchMs)
    }
    (perRule.flatMap(_._1), StageTimes(0L, perRule.map(_._2).sum, perRule.map(_._3).sum, 0L))
  }

  /** Compute the top-k provenance summary for question `pq` over `program`
    * and `catalog`: the question's samples, drawn and collected by
    * [[BatchSampler.sample]], which leaves no cache behind; their
    * [[patterns]]; then the client-side top-k best-first search over them.
    */
  def summarize(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config = Config(),
  ): Result = {
    val (samples, sampleMs) = timed(BatchSampler.sample(spark, program, catalog, pq, cfg.sampler))
    val (pool, times)       = patterns(samples)
    val (summary, topkMs)   = timed(TopK.summarize(pool, cfg.k, cfg.maxPatterns, cfg.maxPops))
    Result(summary, pool, samples, times.copy(sampleMs = sampleMs, topkMs = topkMs))
  }
}
