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
  *  - `Q_X`  — `n_OS` valuations drawn uniformly with replacement from the
  *    unbound variables' domains (the paper's
  *    `#_id(SAMPLE_nOS(σ_θX(D_A1 ∪ …)))`, one per variable, zipped on
  *    `#_id`). All draws come from one `range(n_OS)`: each variable's
  *    deterministic hash index is a column of it, equi-joined to the
  *    `row_number`-indexed domain, so the zip needs no join and the plan
  *    stays relational and reproducible from the seed ([[draw]]).
  *  - `Q_bind` — `θ_join` over the draws.
  *  - `Q_der`  — anti-join against σ_t(Q), cached once per question: the
  *    rules of a union share it, as they share the variable domains.
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
    * @param shared       the caches a why-not sample was drawn with: the
    *                     variable domains and σ_t(Q); still persisted,
    *                     because the rules of a union share them
    *                     ([[repro.summarize.Summarizer.pool]] releases them
    *                     once every rule is sampled)
    */
  final case class RuleSample(
      rule: Rule,
      unified: Unify.Unified,
      sample: DataFrame,
      sampleCount: Long,
      nOS: Long,
      provEstimate: Double,
      exact: Boolean,
      shared: Seq[DataFrame] = Nil,
  ) {
    /** The unbound-variable columns, in pattern-argument order. */
    val varCols: Seq[String] = unified.unboundVars.map(_.name)
    /** The goal-annotation columns `g0..g(m-1)`. */
    val goalColNames: Seq[String] = DerivationOps.goalCols(unified.rule.atoms.size)
  }

  /** `Q_X`: `n` valuations drawn uniformly with replacement, one column per
    * domain. Each domain is a single column named after its variable, given
    * with its size. Draw `id` of `range(n)` takes, from domain `i`, the value
    * at `row_number` `pmod(xxhash64(id, seed + 7919·(i+1)), |D_i|) + 1`.
    * Deterministic in `seed`.
    */
  def draw(spark: SparkSession, domains: Seq[(DataFrame, Long)], n: Long, seed: Long): DataFrame = {
    val vars = domains.map(_._1.columns.head)
    val picks = spark.range(n).select(domains.zipWithIndex.map { case ((_, size), i) =>
      require(size > 0, s"empty domain for ${vars(i)}")
      (pmod(xxhash64(col("id"), lit(seed + 7919L * (i + 1))), lit(size)) + 1).as(s"__x$i")
    }: _*)
    domains.zipWithIndex.foldLeft(picks) { case (df, ((d, _), i)) =>
      df.join(d.withColumn(s"__x$i", row_number().over(Window.orderBy(vars(i)))), s"__x$i")
    }.select(vars.map(col): _*)
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
    * returned sample and its `shared` caches. Returns None whenever the rule
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
    * included), else over the batch sample of §5.2. The variable domains and
    * σ_t(Q) stay cached in the returned sample's `shared`, since the rules of
    * a union share them.
    */
  private def whynot(spark: SparkSession, program: Program, rule: Rule, u: Unify.Unified,
                     catalog: Catalog, t: PTuple, cfg: Config): Option[RuleSample] = {
    val frames  = u.unboundVars.map(v => DerivationOps.varDomain(u.rule, v, catalog).cache())
    val answers = DatalogEval.restrictedAnswers(program, catalog, t).cache()
    val shared  = frames :+ answers
    // No derivations: nothing downstream needs the shared caches.
    def nothing: Option[RuleSample] = { shared.foreach(_.unpersist()); None }
    // Domain sizes drive |A(Q,D,t)| and the over-sampling size.
    val sizes = domainSizes(frames)
    if (sizes.contains(0L)) return nothing
    val domSize   = u.unboundVars.zip(sizes).toMap
    val spaceSize = sizes.map(_.toDouble).product

    // p_notProv: fraction of the space deriving an existing answer matching t
    // (paper §5.3). #derivations per existing answer = Π over existential
    // unbound vars of |D_X|, so p_notProv = nExisting / Π over head-unbound
    // vars of |D_X|.
    val headUnbound = u.rule.headArgs.collect { case v: Var => v }.distinct
    val nExisting   = answers.count()
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
      return materialized(DerivationOps.whynotDerivations(space, answers, catalog, u.rule))
        .map { case (full, c) => RuleSample(rule, u, full, c, 0L, c.toDouble, exact = true, shared) }
        .orElse(nothing)
    }

    val nOS       = OverSampling.minOverSample(cfg.nS, pDraw, cfg.pSuccess, cfg.nOSCap)
    val space     = draw(spark, frames.zip(sizes), nOS, cfg.seed)
    val annotated = DerivationOps.whynotDerivations(space, answers, catalog, u.rule).distinct()
    materialized(takeN(annotated, cfg.nS, cfg.seed))
      .map { case (sample, c) => RuleSample(rule, u, sample, c, nOS, provEstimate, exact = false, shared) }
      .orElse(nothing)
  }

  /** The row count of every domain, from one Spark job: the union of
    * per-domain counts, each tagged with its domain's index.
    */
  private def domainSizes(domains: Seq[DataFrame]): Seq[Long] =
    if (domains.isEmpty) Nil
    else {
      val counts  = domains.zipWithIndex.map { case (d, i) => d.select(lit(i), count(lit(1))) }
      val byIndex = counts.reduce(_.union(_)).collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
      domains.indices.map(byIndex)
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
