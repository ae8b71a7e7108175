package repro.sampling

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Observation, Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.execution.TakeOrderedAndProjectExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, StructType}
import repro.datalog._
import repro.prov.{DerivationOps, WhyProv}
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

/** Batch sampling of why-not (and why) provenance (paper §5).
  *
  * A why-not question first collects to the driver, in one Spark job with
  * one task per relation read (and per domain that unions attributes),
  * each distinct variable domain and body atom's goal markers (its
  * distinct bindings) that its rules read, and, on a second thread
  * meanwhile, each distinct head's bindings in σ_t(Q), the head read
  * as an atom over the answers. Each rule's sample is then one map stage over
  * `range(n_OS)` against those values, broadcast, followed by δ and `takeN`:
  *
  *  - `Q_X`  — `n_OS` valuations drawn uniformly with replacement from the
  *    unbound variables' domains (the paper's
  *    `#_id(SAMPLE_nOS(σ_θX(D_A1 ∪ …)))`, one per variable, zipped on
  *    `#_id`). Draw `id` looks up each variable's value in its collected
  *    domain at a deterministic hash index of `id`, so the zip is implicit
  *    in the draw id, and it is reproducible from the seed ([[draw]]).
  *  - `Q_bind` — `θ_join` over the draws, a Catalyst filter.
  *  - `Q_der`  — a draw whose head is an existing answer is dropped: the
  *    negated goal `¬head` over σ_t(Q) as a lookup in the head's bindings,
  *    not the paper's anti-join.
  *  - `Q_sample` — goal annotation as a lookup in each atom's markers, not
  *    the paper's outer joins, then δ.
  *
  * `Q_der` and the annotation by lookup are
  * [[repro.prov.DerivationOps.lookupDerivations]]; the relational
  * [[repro.prov.DerivationOps.whynotDerivations]], which FULL enumeration
  * runs over the whole space, gives the same rows. The rules of a union are
  * sampled concurrently, and share each input they read alike. `n_OS` comes
  * from [[OverSampling]] so that with probability `P_success` at least `n_S`
  * draws survive both `θ_join` and the missing-answer filter.
  *
  * Each rule's sample is collected to the driver once, and everything
  * downstream reads those rows. The sampler caches nothing; the broadcasts
  * a question makes live only inside [[sample]].
  */
object BatchSampler {

  /** Tuning knobs for one sampling run. */
  final case class Config(
      nS: Int = 1000,
      pSuccess: Double = 0.999,
      seed: Long = 42L,
      nOSCap: Long = 2_000_000L,
      /** Up to `fullEnumFactor * nS` valuations in the space (and always for
        * a space of at most one, such as a ground rule's or an empty
        * domain's), skip sampling and enumerate the space exactly — cheaper
        * and exact.
        */
      fullEnumFactor: Double = 4.0,
  )

  /** The sample of one rule's provenance, collected to the driver, plus the
    * estimates the summarizer needs downstream.
    *
    * @param rows         the annotated derivations, with their schema: per
    *                     row the `varCols` values, then the `goalColNames` flags
    * @param nOS          over-sampling size used (0 when FULL enumeration ran)
    * @param provEstimate estimated |Prov_r(Φ)| — used to weight rules of a
    *                     union when merging their patterns (paper §5.2
    *                     "Queries With Multiple Rules")
    * @param exact        true when the sample IS the full provenance
    */
  final case class RuleSample(
      rule: Rule,
      unified: Unify.Unified,
      rows: Vector[Row],
      nOS: Long,
      provEstimate: Double,
      exact: Boolean,
  ) {
    /** The unbound-variable columns, in pattern-argument order. */
    val varCols: Seq[String] = unified.unboundVars.map(_.name)
    /** The goal-annotation columns `g0..g(m-1)`. */
    val goalColNames: Seq[String] = DerivationOps.goalCols(unified.rule.atoms.size)
    /** |sample|, the denominator of cp estimates; > 0. A batch sample and a
      * why sample hold at most `nS` rows. An exact why-not enumeration holds
      * up to `fullEnumFactor · nS` of them (4000 at the default `nS`), and
      * FULL mode keeps every derivation.
      */
    def sampleCount: Long = rows.size.toLong
    /** The rows as a DataFrame of the active session: a local relation, not
      * cached and read without a Spark job.
      */
    lazy val sample: DataFrame = SparkSession.active.createDataFrame(rows.asJava, rows.head.schema)
  }

  /** `Q_X`: `n` valuations drawn uniformly with replacement, one `schema`
    * column per domain of `domains` (collected by
    * [[DerivationOps.collectArrays]] of [[DerivationOps.domainInput]]s, in
    * Spark's order). Draw `id` of `range(n)` takes, from domain `i`, the
    * value at index
    * `pmod(xxhash64(id, seed + 7919·(i+1)), |D_i|)`, which is
    * `XXH64.hashLong(seed + 7919·(i+1), XXH64.hashLong(id, 42))`: a lookup,
    * with no join, window or exchange. Deterministic in `seed`.
    */
  def draw(spark: SparkSession, schema: StructType, domains: Broadcast[Seq[Array[Any]]], n: Long,
           seed: Long): DataFrame = {
    val sizes = domains.value.map(_.length.toLong).toArray
    sizes.zip(schema.fieldNames).foreach { case (size, v) => require(size > 0, s"empty domain for $v") }
    DerivationOps.valuations(spark, schema, domains, n) { (id, i) =>
      Math.floorMod(XXH64.hashLong(seed + 7919L * (i + 1), XXH64.hashLong(id, 42L)), sizes(i)).toInt
    }
  }

  /** Deterministically keep at most `n` rows of an annotated-derivation
    * DataFrame (uniform given the upstream sample is uniform).
    */
  def takeN(df: DataFrame, n: Long, seed: Long): DataFrame = {
    val cols = df.columns.map(col).toSeq
    df.orderBy(xxhash64(cols :+ lit(seed): _*)).limit(n.toInt)
  }

  /** The provenance of question `pq`: the sample of every rule of `program`
    * that contributes derivations, in rule order — the one entry point every
    * pipeline stage gets its samples through. Each rule is unified with the
    * p-tuple; then its why provenance is captured exactly, or its why-not
    * provenance enumerated or batch-sampled — the space's size alone picks
    * which. The comparisons and goals unification leaves ground stay in the
    * rule's plan like any other, so a rule contributes nothing on a head
    * clash or an empty result: an empty domain, no missing answers and a
    * violated ground comparison among them. A space too large to enumerate
    * also contributes nothing when its §5.3 estimate of the why-not share
    * is 0.
    *
    * A question caches nothing, and a why rule's sample is one collect. A
    * why-not question collects its rules' distinct domains and goal markers
    * in one job, one aggregate frame per relation they read, and their
    * heads' bindings in σ_t(Q) on a second thread, one collect per
    * distinct head and types, then samples the rules
    * concurrently over broadcasts it destroys before it returns or throws.
    */
  def sample(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      cfg: Config,
  ): Vector[RuleSample] = sampleRules(spark, program, program.rules, catalog, pq, cfg)

  /** [[sample]] for `(t, Whynot)`, over `rule` alone. */
  def whynotSample(spark: SparkSession, program: Program, rule: Rule, catalog: Catalog,
                   t: PTuple, cfg: Config): Option[RuleSample] =
    sampleRules(spark, program, Seq(rule), catalog, ProvQuestion(t, Whynot), cfg).headOption

  /** [[sample]] for `(t, Why)`, over `rule` alone. */
  def whySample(spark: SparkSession, program: Program, rule: Rule, catalog: Catalog,
                t: PTuple, cfg: Config): Option[RuleSample] =
    sampleRules(spark, program, Seq(rule), catalog, ProvQuestion(t, Why), cfg).headOption

  /** [[sample]] over `rules` of `program`, at `nS ≥ 1`. Every broadcast goes
    * through `shared`, on this thread only, which records it for the one
    * release in `finally`. A why-not input is keyed before any plan is built
    * (a domain by [[DerivationOps.domainKey]], a body atom's markers and a
    * head's bindings by [[DerivationOps.lookupKey]]), then built and collected
    * once. The domains and markers are aggregates
    * ([[DerivationOps.domainInput]], [[DerivationOps.markerInput]]), read
    * through one frame per relation, plus one per domain that unions
    * attributes or is overridden: r4's 22 inputs are 7 frames, one job. A
    * marker set and a head set are broadcast once, and shared by the rules
    * that read them.
    */
  private def sampleRules(spark: SparkSession, program: Program, rules: Seq[Rule], catalog: Catalog,
                          pq: ProvQuestion, cfg: Config): Vector[RuleSample] = {
    require(cfg.nS >= 1, s"nS=${cfg.nS}")
    val held = mutable.ArrayBuffer.empty[Broadcast[_]]
    def shared[T: ClassTag](value: T): Broadcast[T] = {
      val b = spark.sparkContext.broadcast(value)
      held += b
      b
    }
    val unified = rules.toVector.flatMap(r => Unify.unify(r, pq.tuple).map(r -> _))
    try pq.qtype match {
      case Why => unified.flatMap { case (r, u) => why(r, u, catalog, cfg) }
      case Whynot =>
        val us      = unified.map(_._2)
        val vars    = us.map(u => u.unboundVars.map(v => (DerivationOps.domainKey(u.rule, v), u.rule, v)))
        val domains = vars.flatten.distinctBy(_._1).map(d => d._1 -> DerivationOps.domainInput(d._2, d._3, catalog))
        val field   = domains.map { case (k, (f, _)) => k -> f }.toMap
        val types   = vars.map(_.map { case (k, _, v) => v.name -> field(k).dataType }.toMap)
        val atoms   = us.zip(types).map { case (u, ts) => u.rule.atoms.map(DerivationOps.lookupKey(_, ts)) }
        val heads   = us.zip(types).map { case (u, ts) => DerivationOps.lookupKey(u.rule.head, ts) }
        val (marks, shapes) = (atoms.flatten.distinct, heads.distinct)
        val answers = Catalog(program.headPred -> DatalogEval.restrictedAnswers(program, catalog, pq.tuple))
        val inputs  = domains.map(_._2._2) ++ marks.map { case (a, ts) => DerivationOps.markerInput(a, catalog, ts) }
        val Vector(headRows: Seq[Array[Row]] @unchecked, arrays: Seq[Array[Any]] @unchecked) = concurrently(spark,
          Vector(() => shapes.map { case (h, ts) => DerivationOps.lookupRows(h, answers, ts).collect() },
            () => DerivationOps.collectArrays(inputs)))(_())
        def sets(keys: Seq[(Atom, Seq[DataType])], rows: Seq[Array[_]]) =
          keys.zip(rows).map { case (k, rs) => k -> shared(rs.iterator.map(_.asInstanceOf[Row]).toSet) }.toMap
        val values   = domains.map(_._1).zip(arrays).toMap
        val marked   = sets(marks, arrays.drop(domains.size))
        val headSets = sets(shapes, headRows)
        val perRule  = vars.indices.map { r =>
          (StructType(vars(r).map(v => field(v._1))), shared[Seq[Array[Any]]](vars(r).map(v => values(v._1))),
            DerivationOps.Lookups(headSets(heads(r)), atoms(r).map(marked)))
        }
        concurrently(spark, unified.zip(perRule)) { case ((r, u), (schema, domains, lookups)) =>
          whynot(spark, r, u, schema, domains, lookups, cfg)
        }.flatten
    } finally held.foreach(_.destroy())
  }

  /** `f` of every one of `xs`, on up to `defaultParallelism` threads that
    * this thread creates, so that they inherit its job tags, job group and
    * active session: cancelling this thread's jobs cancels theirs. The
    * results come in the order of `xs`. Once every thread has ended, the
    * first failure in that order is rethrown; an interrupt is passed on to
    * the threads, which are still waited for.
    */
  private def concurrently[A, B](spark: SparkSession, xs: Vector[A])(f: A => B): Vector[B] = {
    val results = new Array[Either[Throwable, B]](xs.size)
    val next    = new AtomicInteger
    val threads = Vector.fill(math.min(xs.size, spark.sparkContext.defaultParallelism)) {
      val t = new Thread(() => {
        var i = next.getAndIncrement()
        while (i < xs.size) {
          results(i) = try Right(f(xs(i))) catch { case e: Throwable => Left(e) }
          i = next.getAndIncrement()
        }
      })
      t.setDaemon(true)
      t.start()
      t
    }
    var interrupted: Option[InterruptedException] = None
    threads.foreach { t =>
      while (t.isAlive) try t.join() catch {
        case e: InterruptedException =>
          interrupted = interrupted.orElse(Some(e))
          threads.foreach(_.interrupt())
      }
    }
    interrupted.foreach(throw _)
    results.toVector.map(_.fold(throw _, identity))
  }

  /** Why-not provenance of the unified rule `u`, whose unbound variables
    * (the `schema` columns) range over the collected `domains`:
    * [[DerivationOps.lookupDerivations]] against `lookups` over the full
    * space when it holds at most `max(1, fullEnumFactor · nS)` valuations (a
    * ground rule's one valuation and an empty domain's none included), else
    * over the batch sample of §5.2, sized by the §5.3 estimate.
    */
  private def whynot(spark: SparkSession, rule: Rule, u: Unify.Unified, schema: StructType,
                     domains: Broadcast[Seq[Array[Any]]], lookups: DerivationOps.Lookups,
                     cfg: Config): Option[RuleSample] = {
    val sizes     = domains.value.map(_.length.toLong)
    val spaceSize = sizes.map(_.toDouble).product

    if (spaceSize <= math.max(1.0, cfg.fullEnumFactor * cfg.nS)) {
      // Small space: enumerate exactly instead of sampling. (A small
      // provenance inside a huge space must still be sampled — enumeration
      // cost is O(spaceSize), not O(provenance).)
      val space = DerivationOps.fullSpace(spark, schema, domains)
      return collected(DerivationOps.lookupDerivations(space, u.rule, lookups))
        .map(rows => RuleSample(rule, u, rows, 0L, rows.size.toDouble, exact = true))
    }

    // p_notProv: fraction of the space deriving an existing answer matching t
    // (paper §5.3). #derivations per existing answer = Π over existential
    // unbound vars of |D_X|, so p_notProv = nExisting / Π over head-unbound
    // vars of |D_X|, where nExisting counts this head's keys: the answers of
    // σ_t(Q) it can take, with no NULL. A fully ground head makes that
    // product 1, and p_notProv 1 or 0.
    val domSize   = u.unboundVars.zip(sizes).toMap
    val headSpace = u.rule.head.variables.map(v => domSize(v).toDouble).product
    val pNotProv  = math.min(1.0, lookups.head.value.size / headSpace)

    // θ_join selectivity (paper §5.3 "Handling Predicates").
    val sel = u.rule.comparisons.filter(_.isVarVar).map { c =>
      val (l, r) = (c.left.asInstanceOf[Var], c.right.asInstanceOf[Var])
      OverSampling.cmpSelectivity(c.op, domSize(l), domSize(r))
    }.product

    val pDraw        = sel * (1.0 - pNotProv)
    val provEstimate = spaceSize * pDraw
    if (pDraw <= 0.0) return None

    val nOS       = OverSampling.minOverSample(cfg.nS, pDraw, cfg.pSuccess, cfg.nOSCap)
    val space     = draw(spark, schema, domains, nOS, cfg.seed)
    val annotated = DerivationOps.lookupDerivations(space, u.rule, lookups).distinct()
    collected(takeN(annotated, cfg.nS, cfg.seed))
      .map(rows => RuleSample(rule, u, rows, nOS, provEstimate, exact = false))
  }

  /** Why provenance of the unified rule `u`: the successful derivations
    * (PUG instrumentation, paper §4), `n_S` of them kept by `takeN` in one
    * collect. A full sample from a one-pass `TakeOrderedAndProject` reads
    * |Prov_r| from an observation; any other holds them all, and a global
    * sort (FULL's, or one whose limit the optimizer dropped) counts twice.
    */
  private def why(rule: Rule, u: Unify.Unified, catalog: Catalog, cfg: Config): Option[RuleSample] = {
    val counted = Observation()
    val sample  = takeN(WhyProv.successful(u, catalog).observe(counted, count(lit(1)).as("n")), cfg.nS, cfg.seed)
    collected(sample).map { rows =>
      val onePass = rows.size == cfg.nS && sample.queryExecution.sparkPlan.isInstanceOf[TakeOrderedAndProjectExec]
      val total   = if (onePass) counted.get("n").asInstanceOf[Long] else rows.size.toLong
      RuleSample(rule, u, rows, 0L, total.toDouble, exact = total <= cfg.nS)
    }
  }

  /** The rows of `df`, collected in one Spark job; None when it has none. */
  private def collected(df: DataFrame): Option[Vector[Row]] = Option(df.collect().toVector).filter(_.nonEmpty)
}
