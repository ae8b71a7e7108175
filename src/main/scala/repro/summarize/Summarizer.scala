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
    * runtime figures break down by.
    */
  final case class StageTimes(sampleMs: Long, lcaMs: Long, matchMs: Long, topkMs: Long)

  final case class Result(
      question: ProvQuestion,
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

  /** The pattern pool the top-k search draws from, with the per-rule
    * samples it came from; `times.topkMs` is 0.
    */
  final case class Pool(
      ruleSamples: Vector[BatchSampler.RuleSample],
      patterns: Vector[Pattern],
      times: StageTimes,
  )

  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** The pattern stage of [[summarize]]: per-rule provenance samples, LCA
    * candidates and their match counts, collected into patterns whose cp is
    * weighted by the rule's share of the estimated |Prov(Φ)|.
    */
  def pool(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config = Config(),
  ): Pool = {
    // Stage 1: per-rule provenance samples (the count() inside the sampler
    // materializes the cached sample, so the timing covers the real work).
    val (samples, sampleMs) = timed {
      program.rules.flatMap(r => BatchSampler.sample(spark, program, r, catalog, pq, cfg.sampler))
    }
    val totalProv = samples.map(_.provEstimate).sum

    // Stage 2: LCA candidates per rule (cached + counted to materialize).
    val (cands, lcaMs) = timed {
      samples.map { s =>
        val c = Lca.candidates(s.sample, s.varCols, s.goalColNames).cache()
        c.count()
        (s, c)
      }
    }

    // Stage 3: match counts + collect into client-side patterns.
    val (patterns, matchMs) = timed {
      cands.flatMap { case (s, c) =>
        val counted = Coverage.matchCounts(c, s.sample, s.varCols, s.goalColNames)
        Coverage.collectPatterns(s.rule.name, counted, s.varCols, s.goalColNames,
          s.sampleCount, s.provEstimate / totalProv)
      }
    }

    // Release every cache but the samples; the rules shared the domains and
    // σ_t(Q).
    cands.foreach(_._2.unpersist())
    samples.foreach(_.shared.foreach(_.unpersist()))
    Pool(samples, patterns, StageTimes(sampleMs, lcaMs, matchMs, 0L))
  }

  /** Compute the top-k provenance summary for question `pq` over `program`
    * and `catalog`: the pattern [[pool]], then the client-side top-k
    * best-first search.
    */
  def summarize(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config = Config(),
  ): Result = {
    val p = pool(spark, program, catalog, pq, cfg)
    val (summary, topkMs) = timed {
      TopK.summarize(p.patterns, cfg.k, cfg.maxPatterns, cfg.maxPops)
    }
    Result(pq, summary, p.patterns, p.ruleSamples, p.times.copy(topkMs = topkMs))
  }
}
