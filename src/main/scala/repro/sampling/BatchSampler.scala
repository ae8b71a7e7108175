package repro.sampling

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.datalog._
import repro.prov.{DerivationOps, WhyProv}

/** Batch sampling of why-not (and why) provenance (paper §5).
  *
  * The sampling pipeline is compiled entirely into a Catalyst plan:
  *
  *  - `Q_X`  — per unbound variable, `n_OS` values drawn uniformly with
  *    replacement from the variable's domain, keyed by a zip id (the
  *    paper's `#_id(SAMPLE_nOS(σ_θX(D_A1 ∪ …)))`). The SAMPLE operator is
  *    realized as an equi-join between `range(n_OS)` with a deterministic
  *    hash index and the `row_number`-indexed domain, so it stays a pure
  *    relational plan and is reproducible from the seed.
  *  - `Q_bind` — natural join of the `Q_X` on the zip id + `θ_join`.
  *  - `Q_der`  — anti-join against σ_t(Q).
  *  - `Q_sample` — outer-join goal annotation + δ.
  *
  * `Q_bind`'s θ_join, `Q_der` and the annotation are
  * [[repro.prov.DerivationOps.whynotDerivations]], which FULL enumeration
  * runs over the whole space instead.
  *
  * `n_OS` comes from [[OverSampling]] so that with probability `P_success`
  * at least `n_S` draws survive both `θ_join` and the missing-answer filter.
  */
object BatchSampler {

  /** Tuning knobs for one sampling run. */
  final case class Config(
      nS: Int = 1000,
      pSuccess: Double = 0.999,
      seed: Long = 42L,
      nOSCap: Long = 2_000_000L,
      /** Up to `fullEnumFactor * nS` valuations in the space (and always for
        * a space of one, such as a ground rule's), skip sampling and
        * enumerate the space exactly — cheaper and exact.
        */
      fullEnumFactor: Double = 4.0,
  )

  /** The sample of one rule's provenance plus the estimates the summarizer
    * needs downstream.
    *
    * @param sample       annotated derivations (`varCols` + `goalColNames`), cached
    * @param sampleCount  |sample| (≤ nS; the denominator of cp estimates; > 0)
    * @param nOS          over-sampling size used (0 when FULL enumeration ran)
    * @param provEstimate estimated |Prov_r(Φ)| — used to weight rules of a
    *                     union when merging their patterns (paper §5.2
    *                     "Queries With Multiple Rules")
    * @param exact        true when the sample IS the full provenance
    * @param domains      the cached variable domains a why-not sample was
    *                     drawn from; still persisted, because the rules of a
    *                     union share them ([[repro.summarize.Summarizer.pool]]
    *                     releases them once every rule is sampled)
    */
  final case class RuleSample(
      rule: Rule,
      unified: Unify.Unified,
      sample: DataFrame,
      sampleCount: Long,
      nOS: Long,
      provEstimate: Double,
      exact: Boolean,
      domains: Seq[DataFrame] = Nil,
  ) {
    /** The unbound-variable columns, in pattern-argument order. */
    val varCols: Seq[String] = unified.unboundVars.map(_.name)
    /** The goal-annotation columns `g0..g(m-1)`. */
    val goalColNames: Seq[String] = DerivationOps.goalCols(unified.rule.atoms.size)
  }

  /** `#_id(SAMPLE_n(dom))`: n values drawn with replacement, zip-keyed by
    * `__sid`. Deterministic in `seed`.
    */
  def sampleWithReplacement(
      spark: SparkSession,
      dom: DataFrame,
      domCount: Long,
      n: Long,
      seed: Long,
      asName: String,
  ): DataFrame = {
    require(domCount > 0, s"empty domain for $asName")
    val indexed = dom
      .withColumn("__rid", row_number().over(Window.orderBy(dom.columns.head)))
    val picks = spark
      .range(n)
      .select(
        col("id").as("__sid"),
        (pmod(xxhash64(col("id"), lit(seed)), lit(domCount)) + 1).as("__rid"),
      )
    picks
      .join(indexed, "__rid")
      .select(col("__sid"), col(dom.columns.head).as(asName))
  }

  /** Deterministically keep at most `n` rows of an annotated-derivation
    * DataFrame (uniform given the upstream sample is uniform).
    */
  def takeN(df: DataFrame, n: Long, seed: Long): DataFrame = {
    val cols = df.columns.map(col).toSeq
    df.orderBy(xxhash64(cols :+ lit(seed): _*)).limit(n.toInt)
  }

  /** The provenance of `rule` for question `pq` — the one entry point every
    * pipeline stage gets a rule's sample through. Unifies the rule with the
    * p-tuple and checks its ground comparisons once, then captures why
    * provenance exactly or samples why-not provenance (FULL or
    * batch-sampled). Every cache it creates is released, apart from the
    * returned sample and its `domains`. Returns None whenever the rule
    * contributes no derivations: head clash, violated ground comparison,
    * empty domain, no missing answers, or an empty result.
    */
  def sample(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config,
  ): Option[RuleSample] =
    Unify.unify(rule, pq.tuple)
      .filter(u => DerivationOps.groundComparisonsHold(u.rule))
      .flatMap { u =>
        pq.qtype match {
          case Why    => why(spark, rule, u, catalog, cfg)
          case Whynot => whynot(spark, program, rule, u, catalog, pq.tuple, cfg)
        }
      }

  /** [[sample]] for `(t, Whynot)`. */
  def whynotSample(spark: SparkSession, program: Program, rule: Rule, catalog: Catalog,
                   t: PTuple, cfg: Config): Option[RuleSample] =
    sample(spark, program, rule, catalog, ProvQuestion(t, Whynot), cfg)

  /** [[sample]] for `(t, Why)`. */
  def whySample(spark: SparkSession, program: Program, rule: Rule, catalog: Catalog,
                t: PTuple, cfg: Config): Option[RuleSample] =
    sample(spark, program, rule, catalog, ProvQuestion(t, Why), cfg)

  /** Why-not provenance of the unified rule `u`: [[DerivationOps.whynotDerivations]]
    * over the full space when it is small (a ground rule's one valuation
    * included), else over the batch sample of §5.2. The variable domains
    * stay cached in the returned sample's `domains`, since the rules of a
    * union share them.
    */
  private def whynot(spark: SparkSession, program: Program, rule: Rule, u: Unify.Unified,
                     catalog: Catalog, t: PTuple, cfg: Config): Option[RuleSample] = {
    // Domain sizes drive |A(Q,D,t)| and the over-sampling size.
    val domains = u.unboundVars.map { v =>
      val d = DerivationOps.varDomain(u.rule, v, catalog).cache()
      (v, d, d.count())
    }
    val frames = domains.map(_._2)
    // No derivations: nothing downstream needs the domains.
    def nothing: Option[RuleSample] = { frames.foreach(_.unpersist()); None }
    if (domains.exists(_._3 == 0L)) return nothing
    val domSize  = domains.map { case (v, _, c) => v -> c }.toMap
    val spaceSize = domains.map(_._3.toDouble).product

    // p_notProv: fraction of the space deriving an existing answer matching t
    // (paper §5.3). #derivations per existing answer = Π over existential
    // unbound vars of |D_X|, so p_notProv = nExisting / Π over head-unbound
    // vars of |D_X|.
    val headUnbound = u.rule.headArgs.collect { case v: Var => v }.distinct
    val nExisting   = DatalogEval.restrictedAnswers(program, catalog, t).count()
    val headSpace   = headUnbound.map(v => domSize(v).toDouble).product
    val pNotProv =
      if (headUnbound.isEmpty) { if (nExisting > 0) 1.0 else 0.0 }
      else math.min(1.0, nExisting / headSpace)

    // θ_join selectivity (paper §5.3 "Handling Predicates").
    val sel = u.rule.comparisons.filter(_.isVarVar).map { c =>
      val (l, r) = (c.left.asInstanceOf[Var], c.right.asInstanceOf[Var])
      OverSampling.cmpSelectivity(c.op, domSize(l), domSize(r))
    }.product

    val pDraw        = sel * (1.0 - pNotProv)
    val provEstimate = spaceSize * pDraw
    if (pDraw <= 0.0) return nothing

    if (spaceSize <= math.max(1.0, cfg.fullEnumFactor * cfg.nS)) {
      // Small space: enumerate exactly instead of sampling. (A small
      // provenance inside a huge space must still be sampled — enumeration
      // cost is O(spaceSize), not O(provenance).)
      val space = DerivationOps.fullSpace(spark, frames)
      return materialized(DerivationOps.whynotDerivations(space, program, catalog, t, u.rule))
        .map { case (full, c) => RuleSample(rule, u, full, c, 0L, c.toDouble, exact = true, frames) }
        .orElse(nothing)
    }

    val nOS = OverSampling.minOverSample(cfg.nS, pDraw, cfg.pSuccess, cfg.nOSCap)

    // Q_X + Q_bind: zip the per-variable samples.
    val qxs = domains.zipWithIndex.map { case ((v, d, c), i) =>
      sampleWithReplacement(spark, d, c, nOS, cfg.seed + 7919L * (i + 1), v.name)
    }
    val space     = qxs.reduce(_.join(_, "__sid")).drop("__sid")
    val annotated = DerivationOps.whynotDerivations(space, program, catalog, t, u.rule).distinct()
    materialized(takeN(annotated, cfg.nS, cfg.seed))
      .map { case (sample, c) => RuleSample(rule, u, sample, c, nOS, provEstimate, exact = false, frames) }
      .orElse(nothing)
  }

  /** Why provenance of the unified rule `u`: capture the successful
    * derivations exactly (PUG instrumentation, paper §4) and keep `n_S` of
    * them uniformly.
    */
  private def why(spark: SparkSession, rule: Rule, u: Unify.Unified, catalog: Catalog,
                  cfg: Config): Option[RuleSample] =
    materialized(WhyProv.successful(spark, u, catalog)).map { case (all, total) =>
      if (total <= cfg.nS) RuleSample(rule, u, all, total, 0L, total.toDouble, exact = true)
      else {
        val sample = takeN(all, cfg.nS, cfg.seed).cache()
        val c      = sample.count()
        // Only now: unpersisting a parent recompiles a dependent cache that
        // is not yet loaded.
        all.unpersist()
        RuleSample(rule, u, sample, c, 0L, total.toDouble, exact = false)
      }
    }

  /** `df` cached and counted; None, with the cache released, when empty. */
  private def materialized(df: DataFrame): Option[(DataFrame, Long)] = {
    val cached = df.cache()
    val c      = cached.count()
    if (c > 0) Some((cached, c)) else { cached.unpersist(); None }
  }
}
