package repro.sampling

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.plans.logical.{Join, LocalRelation, Window}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan, TakeOrderedAndProjectExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.expressions.{Window => W}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructType}
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.prov.{DerivationOps, FullWhyNot, WhyProv}
import repro.summarize.Summarizer
import scala.jdk.CollectionConverters._

class BatchSamplerSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val rex    = Datasets.runningExample(spark)
  private lazy val airbnb = Datasets.airbnb(spark)
  private val tEx         = PTuple("Qex", Vector(Var("X"), Const(4L)))
  private val tAirbnb     = PTuple("AL", Vector(Var("N"), Const("shared")))
  private val cfg         = BatchSampler.Config(nS = 50, seed = 7L)

  /** movies 100 as local relations, read without an exchange like the
    * checkpointed catalog of a benchmark.
    */
  private lazy val localMovies = {
    val movies = Datasets.movies(spark, 100)
    Catalog(Seq("MOVIES", "CASTS", "GENRES", "KEYWORDS", "RATINGS").map { n =>
      val r = movies.relation(n)
      n -> spark.createDataFrame(r.collect().toSeq.asJava, r.schema)
    }: _*)
  }
  private val tomFord = PTuple("Players", Vector(Const("tom ford")))

  private def domains(sizes: Seq[Int]) = {
    import spark.implicits._
    sizes.zipWithIndex.map { case (n, i) => ((1L to n).map(_ * 10 + i).toDF(s"V$i"), n.toLong) }
  }

  /** The rows of `df` as a sorted multiset of tuples. */
  private def multiset(df: DataFrame): Seq[String] = df.collect().map(_.mkString("|")).toSeq.sorted

  /** [[BatchSampler.draw]] over `doms`, collected and broadcast as the
    * sampler does.
    */
  private def draw(doms: Seq[(DataFrame, Long)], n: Long, seed: Long): DataFrame = {
    val (schema, values) = BatchSamplerSpec.collected(spark, doms.map(_._1))
    BatchSampler.draw(spark, schema, values, n, seed)
  }

  test("draw takes exactly n valuations, each column from its domain") {
    val doms = domains(Seq(3, 5, 2))
    val s    = draw(doms, 100, 1L)
    assert(s.columns.toSeq == Seq("V0", "V1", "V2"))
    val rows = s.collect()
    assert(rows.length == 100)
    doms.zipWithIndex.foreach { case ((d, _), i) =>
      val dom = d.collect().map(_.getLong(0)).toSet
      // With 100 draws over ≤ 5 values, all values appear (deterministic seed).
      assert(rows.map(_.getLong(i)).toSet == dom)
    }
  }

  test("draw is deterministic in the seed") {
    val doms = domains(Seq(4, 3))
    def drawn(seed: Long) = multiset(draw(doms, 50, seed))
    assert(drawn(5L) == drawn(5L))
    assert(drawn(5L) != drawn(6L))
  }

  test("draw is roughly uniform in every column") {
    val doms = domains(Seq(10, 4))
    val s    = draw(doms, 10000, 3L)
    doms.foreach { case (d, size) =>
      val v      = d.columns.head
      val counts = s.groupBy(v).count().collect().map(_.getLong(1))
      assert(counts.length == size)
      // Expected 10000/size per value; allow ±20%.
      val expected = 10000.0 / size
      counts.foreach(c => assert(c > 0.8 * expected && c < 1.2 * expected, s"$v count $c"))
    }
  }

  test("draw equals the per-variable zip as a multiset of tuples") {
    import spark.implicits._
    def sized(df: DataFrame) = (df, df.count())
    // Spark orders strings by their UTF-8 bytes, Java by UTF-16 units:
    // "！" (U+FF01) comes before "😀" (U+1F600) in Spark and after it in Java.
    val strings = sized(Seq("！", "😀", "b", "B", "a", "A", "Zeta", "alpha", "é").toDF("S"))
    val doubles = sized(Seq(-2.5, 3.25, -0.5, 0.0, 1.5, -1e10, 7.0).toDF("D"))
    val dates   = sized(Seq("2016-11-09", "1999-12-31", "2016-11-10", "1970-01-01", "2024-02-29")
      .map(java.sql.Date.valueOf).toDF("T"))
    for (seed <- Seq(1L, 7L);
         doms <- Seq(domains(Seq(3, 7, 2, 11)), Seq(strings), Seq(doubles), Seq(dates),
                     Seq(strings, doubles, dates) ++ domains(Seq(4)))) {
      assert(multiset(draw(doms, 500, seed)) ==
        multiset(BatchSamplerSpec.zipDraw(spark, doms, 500, seed)), doms.map(_._1.columns.head))
    }
  }

  test("Q_X is a lookup: one job collects a union's domains, and the draw has no window, join or exchange") {
    val unified = Queries.r4.rules.map(r => Unify.unify(r, tomFord).get)
    val keys    = unified.map(u => u.unboundVars.map(DerivationOps.domainKey(u.rule, _)))
    // The 39 (rule, variable) pairs have 14 distinct domains: r4′ and r4″
    // agree on all 13 of theirs, and r4 on 12 with them. I also binds
    // KEYWORDS.k_movie in r4′ and r4″.
    assert(keys.map(_.size) == Vector(13, 13, 13) && keys.flatten.distinct.size == 14)
    assert(keys(1) == keys(2) && keys(0).map(_._1) == keys(1).map(_._1))
    assert(keys(0).zip(keys(1)).collect { case (a, b) if a != b => a._1 } == Vector(Var("I")))
    val vars   = unified.flatMap(u => u.unboundVars.map(v => DerivationOps.domainKey(u.rule, v) -> (u, v)))
      .distinctBy(_._1).map(_._2)
    val frames = vars.map { case (u, v) => DerivationOps.varDomain(u.rule, v, localMovies) }
    val inputs = vars.map { case (u, v) => DerivationOps.domainInput(u.rule, v, localMovies) }
    val (values, jobs) = jobsOf(DerivationOps.collectArrays(inputs.map(_._2)))
    assert(jobs == 1 && values.size == 14)
    assert(inputs.map(_._1) == frames.map(_.schema.head))
    assert(values.zip(frames).forall { case (a, f) =>
      a.toSeq == f.select(sort_array(collect_list(col(f.columns.head)))).head().getSeq[Any](0) })
    val (schema, shared) = BatchSamplerSpec.collected(spark, frames.take(13))
    val d = BatchSampler.draw(spark, schema, shared, 1000, 7L)
    assert(d.queryExecution.optimizedPlan.collect { case w: Window => w; case j: Join => j }.isEmpty)
    assert(collect(d.queryExecution.executedPlan) { case e: Exchange => e }.isEmpty)
    assert(d.count() == 1000)
  }

  test("r4's why-not inputs are 7 frames, one per relation and one per union domain, collected in one job of 7 tasks") {
    val unified = Queries.r4.rules.map(r => Unify.unify(r, tomFord).get)
    val domains = unified.flatMap(u => u.unboundVars.map(v => DerivationOps.domainKey(u.rule, v) -> (u, v)))
      .distinctBy(_._1).map { case (_, (u, v)) => DerivationOps.domainInput(u.rule, v, localMovies)._2 }
    val markers = unified.flatMap { u =>
      val types = u.unboundVars.map(v => v.name -> DerivationOps.domainInput(u.rule, v, localMovies)._1.dataType).toMap
      u.rule.atoms.map(DerivationOps.lookupKey(_, types))
    }.distinct.map { case (a, ts) => DerivationOps.markerInput(a, localMovies, ts) }
    assert(domains.size == 14 && markers.size == 8)
    // MOVIES, CASTS, GENRES, KEYWORDS and RATINGS, and I's two unions.
    val inputs = domains ++ markers
    val frames = DerivationOps.inputFrames(inputs)
    val relations = Seq("MOVIES", "CASTS", "GENRES", "KEYWORDS", "RATINGS").map(localMovies.relation)
    assert(frames.size == 7 && frames.map(_._2).flatten.sorted == inputs.indices)
    val sources = frames.map(f => inputs(f._2.head).source)
    assert(relations.forall(r => sources.count(_ eq r) == 1))
    assert(domains.count(d => !relations.exists(_ eq d.source)) == 2)
    frames.foreach(f => assert(collect(f._1.queryExecution.executedPlan) { case e: Exchange => e }.isEmpty, f))
    val tasks = new java.util.concurrent.atomic.AtomicInteger
    val count = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = tasks.addAndGet(e.stageInfos.map(_.numTasks).sum)
    }
    spark.sparkContext.addSparkListener(count)
    val (arrays, jobs) =
      try jobsOf(DerivationOps.collectArrays(inputs))
      finally spark.sparkContext.removeSparkListener(count)
    assert(jobs == 1 && tasks.get == 7 && arrays.size == 22)
  }

  test("domains and markers keep distinct's equality for NaN, -0.0 and NULL, beside constants and an override") {
    import spark.implicits._
    val (x, y, z, w) = (Var("X"), Var("Y"), Var("Z"), Var("W"))
    val nan2 = java.lang.Double.longBitsToDouble(0xfff8000000000000L)
    // X binds R.r_a alone, a double holding 0.0 with Y = 2 and -0.0 with
    // Y = 1, two NaN bit patterns and a NULL. Z binds T's two columns; W
    // binds U.u alone, whose domain is overridden. S(Y, 'c') has a
    // constant, T(Z, Z) a repeated variable, and S(2, 'c') (present) and
    // S(2, 'e') (absent) are ground, so Q has no answer.
    val r   = Seq[(java.lang.Double, Long)]((0.0, 2L), (-0.0, 1L), (Double.NaN, 2L), (nan2, 1L), (null, 3L), (1.5, 1L))
    val t   = Seq[(java.lang.Double, java.lang.Double)]((0.0, -0.0), (-0.0, -0.0), (Double.NaN, nan2), (1.5, 2.5))
    val cat = Catalog("R" -> r.toDF("r_a", "r_b"), "T" -> t.toDF("t_a", "t_b"),
      "S" -> Seq((1L, "c"), (2L, "c"), (3L, "d")).toDF("s_a", "s_b"), "U" -> Seq(5L).toDF("u"))
      .withDomain("U", 0, Seq(5L, 6L).toDF("v"))
    val q = Program(Rule("q", "Q", Vector(y), Vector(Atom("R", Vector(x, y)), Atom("T", Vector(z, z)),
      Atom("S", Vector(y, Const("c"))), Atom("S", Vector(Const(2L), Const("c"))),
      Atom("S", Vector(Const(2L), Const("e"))), Atom("U", Vector(w)))))
    val tq   = PTuple("Q", Vector(y))
    val full = multiset(FullWhyNot.derivations(spark, q, q.rules.head, cat, tq).get)
    // Y ∈ {1, 2, 3}, X ∈ {0.0, 1.5, NaN}, Z ∈ {0.0, 1.5, 2.5, NaN}, W ∈ {5, 6}.
    assert(full.size == 72 && full.exists(_.startsWith("1|NaN|")) && !full.exists(_.contains("-0.0")))
    val exact = BatchSampler.whynotSample(spark, q, q.rules.head, cat, tq, cfg.copy(fullEnumFactor = Double.MaxValue)).get
    assert(exact.exact && multiset(exact.sample) == full)
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
    val s      = BatchSampler.whynotSample(spark, q, q.rules.head, cat, tq, forced).get
    assert(!s.exact && multiset(s.sample) == multiset(BatchSamplerSpec.zipSample(spark, q, q.rules.head, cat, tq, s.nOS, forced)))
    // P(X, Y) :- R(X, Y), S(Y, 'c') has answers from R's (-0.0, 1) and
    // both NaNs: the valuations (0.0, 1) and (NaN, 1) derive answers, as
    // under FULL's anti-join. The answers come out of a `distinct`, so
    // they hold one 0.0 and one NaN; the head lookup rows, read straight
    // off R, hold distinct's values too.
    val p     = Program(Rule("p", "P", Vector(x, y), Vector(Atom("R", Vector(x, y)), Atom("S", Vector(y, Const("c"))))))
    val tp    = PTuple("P", Vector(x, y))
    val fullP = multiset(FullWhyNot.derivations(spark, p, p.rules.head, cat, tp).get)
    // X ∈ {0.0, 1.5, NaN} and Y ∈ {1, 2, 3}, less the answers (0.0, 1),
    // (0.0, 2), (1.5, 1), (NaN, 1) and (NaN, 2).
    assert(fullP.size == 4 && !fullP.exists(_.startsWith("0.0|1|")))
    val exactP = BatchSampler.whynotSample(spark, p, p.rules.head, cat, tp, cfg.copy(fullEnumFactor = Double.MaxValue)).get
    assert(exactP.exact && multiset(exactP.sample) == fullP)
    val heads = DerivationOps.lookupRows(Atom("R", Vector(x, y)), cat, Seq(DoubleType, LongType)).collect()
    assert(heads.map(_.mkString("|")).toSet == Set("0.0|2", "0.0|1", "NaN|2", "NaN|1", "1.5|1"))
  }

  test("draw at the n_OS cap counts every valuation without a driver-side relation") {
    val d = draw(domains(Seq(3, 5, 2)), 2000000L, 5L)
    assert(d.count() == 2000000L)
    assert(!d.queryExecution.optimizedPlan.collectLeaves().exists(_.isInstanceOf[LocalRelation]))
  }

  test("a forced-sampling question leaves no cache or broadcast behind") {
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
    val movies = Datasets.movies(spark, 100)
    // The sampled r4 why-not union, the r4 why union (two of its rules
    // have derivations, all of them kept), and r1's why rule, whose 14
    // derivations takeN cuts to 10.
    for ((program, cat, pq, c, exact) <- Seq(
        (Queries.r4, movies, ProvQuestion(tomFord, Whynot), forced, Vector(false, false, false)),
        (Queries.r4, movies, Queries.whyR4, forced, Vector(true, true)),
        (Queries.r1, Datasets.license(spark, 1000), Queries.whyR1, forced.copy(nS = 10), Vector(false)))) {
      val (caches, shared) = (cacheState, broadcasts)
      // Nor does it cache anything on the way: the state as each job starts.
      val seen  = new java.util.concurrent.ConcurrentLinkedQueue[(Set[Int], Int)]()
      val watch = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = seen.add(cacheState)
      }
      spark.sparkContext.addSparkListener(watch)
      val (samples, jobs) =
        try jobsOf(BatchSampler.sample(spark, program, cat, pq, c))
        finally spark.sparkContext.removeSparkListener(watch)
      assert(samples.map(_.exact) == exact, pq)
      assert(seen.size == jobs && seen.asScala.forall(_ == caches), pq)
      assert(cacheState == caches, pq)
      eventually(timeout(10.seconds))(assert(broadcasts.subsetOf(shared), pq))
    }
  }

  test("a rule that throws makes its question throw, and leaves no cache or broadcast behind") {
    import spark.implicits._
    // Q(X) :- S(X), R(X, 9) has no answer and a space of 3 valuations,
    // enumerated. Q(X) :- R(X, Y), R(Y, Z) has the answers 1 and 5 and 90
    // valuations, sampled at nS = 1: sizing its n_OS rejects P_success = 1
    // on the second rule's thread.
    val x   = Vector(Var("X"))
    val q   = Program(Rule("q1", "Q", x, Vector(Atom("S", x), Atom("R", Vector(Var("X"), Const(9L))))),
      Rule("q2", "Q", x, Vector(Atom("R", Vector(Var("X"), Var("Y"))), Atom("R", Vector(Var("Y"), Var("Z"))))))
    val cat = Catalog("R" -> rex.relation("R"), "S" -> Seq(1L, 2L).toDF("s"))
    val t   = ProvQuestion(PTuple("Q", Vector(Var("X"))), Whynot)
    val ok  = BatchSampler.sample(spark, q, cat, t, cfg.copy(nS = 1))
    assert(ok.map(_.exact) == Vector(true, false))
    val (caches, shared) = (cacheState, broadcasts)
    val e = intercept[IllegalArgumentException](BatchSampler.sample(spark, q, cat, t, cfg.copy(nS = 1, pSuccess = 1.0)))
    assert(e.getMessage.contains("pSuccess=1.0"), e)
    assert(cacheState == caches)
    eventually(timeout(10.seconds))(assert(broadcasts.subsetOf(shared)))
  }

  test("cancelling the question's job tag stops the jobs of its rule threads") {
    // n_OS at its 2M cap: each rule's sample runs long enough to be
    // cancelled while it runs.
    val heavy = cfg.copy(fullEnumFactor = 0.0, nS = 1000000)
    val sc    = spark.sparkContext
    val tag   = "batch-sampler-cancel"
    val (caches, shared) = (cacheState, broadcasts)
    @volatile var outcome: Either[Throwable, Vector[BatchSampler.RuleSample]] = null
    val question = new Thread(() => {
      sc.addJobTag(tag)
      outcome = try Right(BatchSampler.sample(spark, Queries.r4, localMovies, ProvQuestion(tomFord, Whynot), heavy))
                catch { case e: Throwable => Left(e) }
    })
    question.start()
    // r4's 8 distinct marker sets and the one head set its three rules share,
    // then each rule's domains, are broadcast on the question's thread just
    // before the rule threads start; from then on, cancel the tag's jobs.
    eventually(timeout(60.seconds), interval(5.millis))(assert((broadcasts -- shared).size >= 12 || !question.isAlive))
    val made = (broadcasts -- shared).size
    while (question.isAlive) { sc.cancelJobsWithTag(tag); question.join(20) }
    assert(outcome.isLeft, "the question ran to its end")
    assert(made == 12, made)
    assert(Iterator.iterate[Throwable](outcome.swap.toOption.get)(_.getCause).takeWhile(_ != null)
      .exists(e => String.valueOf(e.getMessage).contains(tag)), outcome)
    assert(cacheState == caches)
    eventually(timeout(10.seconds))(assert(broadcasts.subsetOf(shared)))
  }

  test("Q_sample is one map stage: no join or exchange below δ, and a bounded count of jobs and stages") {
    val forced  = cfg.copy(fullEnumFactor = 0.0, nS = 20)
    val plans   = new java.util.concurrent.ConcurrentLinkedQueue[SparkPlan]()
    val capture = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        plans.add(qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    val movies  = localMovies // forced here: the catalog's own collects are not the question's
    spark.listenerManager.register(capture)
    val ((samples, stages), jobs) =
      try jobsOf(stagesOf(BatchSampler.sample(spark, Queries.r4, movies, ProvQuestion(tomFord, Whynot), forced)))
      finally spark.listenerManager.unregister(capture)
    assert(samples.size == 3 && !samples.exists(_.exact))
    // Each rule's sample is the one plan with a takeN. Below its δ (the
    // partial aggregate) is a single map stage over range(n_OS).
    val sampled = plans.asScala.toVector.filter(p => collect(p) { case t: TakeOrderedAndProjectExec => t }.nonEmpty)
    assert(sampled.size == 3)
    sampled.foreach { p =>
      val delta = collect(p) { case a: BaseAggregateExec => a }
        .filter(a => collect(a.child) { case b: BaseAggregateExec => b }.isEmpty)
      assert(delta.size == 1, p)
      assert(collect(delta.head.child) { case j: BaseJoinExec => j; case e: Exchange => e }.isEmpty, p)
      assert(collect(p) { case j: BaseJoinExec => j }.isEmpty, p)
    }
    // The head set of σ_t(Q) that r4's rules share takes 11 jobs of one stage
    // each (its adaptive plan runs each shuffle stage as a job), the domains
    // and markers 1, and each rule's sample 2: its map stage and the takeN
    // after δ's exchange.
    assert(jobs <= 18 && stages <= 18, (jobs, stages))
  }

  test("forced sampling returns exactly the rows of the per-variable zip pipeline") {
    // fullEnumFactor=0 disables the exact-enumeration shortcut, so every
    // rule below is batch-sampled.
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
    val movies = Datasets.movies(spark, 100)
    val cases =
      Queries.r4.rules.map(r => (Queries.r4, r, movies, PTuple("Players", Vector(Const("tom ford"))))) :+
        ((Queries.airbnb, Queries.airbnb.rules.head, airbnb, tAirbnb))
    for ((program, rule, cat, t) <- cases) {
      val s = BatchSampler.whynotSample(spark, program, rule, cat, t, forced).get
      assert(!s.exact, rule.name)
      val ref = BatchSamplerSpec.zipSample(spark, program, rule, cat, t, s.nOS, forced)
      assert(multiset(s.sample) == multiset(ref), rule.name)
    }
  }

  test("Q_der and annotation by lookup equal the relational anti- and outer joins") {
    import spark.implicits._
    val (a, b, x, y, z) = (Var("A"), Var("B"), Var("X"), Var("Y"), Var("Z"))
    def rule(name: String, head: Vector[Term], body: Atom*) = Program(Rule(name, name, head, body.toVector))
    // R(1,2) R(2,3) R(2,4) R(5,3) R(5,5) R(5,6).
    val ground  = rule("Qa", Vector(a, b), Atom("R", Vector(a, y)), Atom("R", Vector(y, z)),
      Atom("R", Vector(b, Const(4L))))
    val negated = rule("Qn", Vector(a, b), Atom("R", Vector(a, b)), Atom("R", Vector(b, a), negated = true))
    val twice   = rule("Qr", Vector(a), Atom("R", Vector(a, a)), Atom("R", Vector(a, b)))
    val mixed   = rule("Qt", Vector(a, b), Atom("S", Vector(a)), Atom("T", Vector(a)), Atom("T", Vector(b)))
    val withNull = Catalog("R" -> Seq((Some(1L), Some(2L)), (Some(2L), None), (None, Some(4L)), (Some(2L), Some(4L)),
      (Some(4L), Some(6L))).toDF("r_a", "r_b"))
    // S.s is an int, T.t a bigint: A's domain is a bigint. D.d is a date,
    // E.e a timestamp: A's domain is a timestamp, and a date marker equals
    // a derivation value only once cast to it.
    val ints    = Catalog("S" -> Seq(1, 2, 3).toDF("s"), "T" -> Seq(2L, 3L, 4L).toDF("t"))
    val days    = Seq("2016-11-09", "2016-11-10", "2016-11-11")
    val times   = Catalog("S" -> days.take(2).map(java.sql.Date.valueOf).toDF("s"),
      "T" -> days.drop(1).map(d => java.sql.Timestamp.valueOf(s"$d 00:00:00")).toDF("t"))
    def tuple(p: String, args: Term*) = PTuple(p, args.toVector)
    for ((program, cat, t) <- Seq(
        (Queries.rEx, rex, tEx),                                      // a partly bound head
        (Queries.rEx, rex, tuple("Qex", Const(2L), Const(4L))),       // a ground head, no answer
        (Queries.rEx, rex, tuple("Qex", Const(1L), Const(4L))),       // a ground head, an answer
        (ground, rex, tuple("Qa", x, Const(2L))),                     // R(2, 4) present
        (ground, rex, tuple("Qa", x, Const(1L))),                     // R(1, 4) absent
        (negated, rex, tuple("Qn", x, y)),
        (twice, rex, tuple("Qr", x)),
        (Queries.rEx, withNull, tuple("Qex", x, y)),
        (mixed, ints, tuple("Qt", x, y)),
        (mixed, times, tuple("Qt", x, y)))) {
      val r    = program.rules.head
      val full = multiset(FullWhyNot.derivations(spark, program, r, cat, t).get)
      assert(full.isEmpty == (t == tuple("Qex", Const(1L), Const(4L))), t)
      val exact = BatchSampler.whynotSample(spark, program, r, cat, t, cfg.copy(fullEnumFactor = Double.MaxValue))
      assert(exact.forall(_.exact) && exact.fold(Seq.empty[String])(s => multiset(s.sample)) == full, t)
      val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
      BatchSampler.whynotSample(spark, program, r, cat, t, forced) match {
        case Some(s) =>
          assert(!s.exact, t)
          assert(multiset(s.sample) == multiset(BatchSamplerSpec.zipSample(spark, program, r, cat, t, s.nOS, forced)), t)
        case None => assert(full.isEmpty, t)
      }
    }
  }

  test("a union's rules share an input only where they read it alike") {
    import spark.implicits._
    val (x, y, z) = (Var("X"), Var("Y"), Var("Z"))
    // X binds R.r_a in both rules, under X > 1 in one and X > 3 in the
    // other: two domains, {2, 5} and {5}.
    def above(name: String, c: Long) = Rule(name, "Q", Vector(x, y),
      Vector(Atom("R", Vector(x, z)), Atom("R", Vector(z, y))), Vector(Comparison(x, CmpOp.Gt, Const(c))))
    val thetas = Program(above("q1", 1L), above("q2", 3L))
    // S(X) in both rules: X binds only S.s and U.u in the first, and also
    // T.t in the second. With S.s and U.u ints and T.t a bigint, the atom's
    // markers are ints in one rule and bigints in the other; with dates and
    // a timestamp, dates in one and timestamps in the other. (A Row holding
    // the int 3 equals one holding the bigint 3, but a date never equals a
    // timestamp.)
    val types = Program(Rule("q1", "Q", Vector(x), Vector(Atom("S", Vector(x)), Atom("U", Vector(x)))),
      Rule("q2", "Q", Vector(x), Vector(Atom("S", Vector(x)), Atom("T", Vector(x)))))
    val ints  = Catalog("S" -> Seq(1, 2, 3).toDF("s"), "U" -> Seq(3, 4, 5).toDF("u"), "T" -> Seq(2L, 3L, 4L).toDF("t"))
    val days  = (10 to 14).map(d => java.sql.Date.valueOf(s"2016-11-$d"))
    val times = Catalog("S" -> days.take(3).toDF("s"), "U" -> days.drop(2).toDF("u"),
      "T" -> days.slice(1, 4).map(d => new java.sql.Timestamp(d.getTime)).toDF("t"))
    // Two heads over σ_t(Q) = {(2, 'a'), (1, 'b')}: h1 can take only the
    // answers whose second value is 'a', k1 only those whose two values are
    // equal, so the answer (1, 'b') of h2 removes no derivation of either.
    // X = 1 is a missing answer of both; h2 and k2 have no derivation.
    val xy     = Vector(x, y)
    val heads  = Program(Rule("h1", "Q", Vector(x, Const("a")), Vector(Atom("R", Vector(x)), Atom("T", Vector(x)))),
      Rule("h2", "Q", xy, Vector(Atom("S", xy))))
    val twice  = Program(Rule("k1", "Q", Vector(x, x), Vector(Atom("R", Vector(x)), Atom("T", Vector(x)))),
      Rule("k2", "Q", xy, Vector(Atom("S", xy))))
    def rst(s: DataFrame) = Catalog("R" -> Seq(1L, 2L).toDF("r"), "T" -> Seq(2L).toDF("t"), "S" -> s)
    val hcat   = rst(Seq((1L, "b")).toDF("s_a", "s_b"))
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
    for ((program, cat, t, only) <- Seq(
        (thetas, rex, PTuple("Q", xy), None),
        (types, ints, PTuple("Q", Vector(x)), None),
        (types, times, PTuple("Q", Vector(x)), None),
        (heads, hcat, PTuple("Q", xy), Some("h1")),
        (twice, rst(Seq((1L, 3L)).toDF("s_a", "s_b")), PTuple("Q", xy), Some("k1")))) {
      val pq    = ProvQuestion(t, Whynot)
      val exact = BatchSampler.sample(spark, program, cat, pq, cfg.copy(fullEnumFactor = Double.MaxValue))
      val fulls = program.rules.map(r => r.name -> multiset(FullWhyNot.derivations(spark, program, r, cat, t).get))
        .filter(_._2.nonEmpty)
      assert(fulls.map(_._1) == only.fold(program.rules.map(_.name))(Vector(_)), t)
      only.foreach(r => assert(fulls == Vector(r -> Seq("1|true|false")), t))
      assert(exact.map(s => s.rule.name -> multiset(s.sample)) == fulls, t)
      val sampled = BatchSampler.sample(spark, program, cat, pq, forced)
      assert(sampled.map(_.rule.name) == fulls.map(_._1) && !sampled.exists(_.exact), t)
      sampled.foreach { s =>
        val ref = BatchSamplerSpec.zipSample(spark, program, s.rule, cat, t, s.nOS, forced)
        assert(multiset(s.sample) == multiset(ref), (t, s.rule.name))
      }
    }
    // One head set per head and its variables' types: h1's and h2's heads
    // differ by a constant, and r4's three rules share theirs.
    def headKeys(program: Program, cat: Catalog, t: PTuple) = program.rules.map { r =>
      val u = Unify.unify(r, t).get
      DerivationOps.lookupKey(u.rule.head,
        u.unboundVars.map(v => v.name -> DerivationOps.varDomain(u.rule, v, cat).schema.head.dataType).toMap)
    }.distinct.size
    assert(headKeys(heads, hcat, PTuple("Q", xy)) == 2 && headKeys(Queries.r4, localMovies, tomFord) == 1)
  }

  test("a question at nS < 1 throws, and FULL at nS = 0 still answers") {
    val license = Datasets.license(spark, 1000)
    for (pq <- Seq(Queries.whyR1, Queries.whynotR1)) {
      val e = intercept[IllegalArgumentException](BatchSampler.sample(spark, Queries.r1, license, pq, cfg.copy(nS = 0)))
      assert(e.getMessage.contains("nS=0"), (pq, e))
    }
    val full = Summarizer.summarize(spark, Queries.r1, license, Queries.whyR1, Summarizer.Config(nS = 0, full = true))
    assert(full.ruleSamples.map(_.sampleCount) == Vector(14L) && full.summary.patterns.nonEmpty)
  }

  test("whynot sample on a tiny space returns the full provenance (exact)") {
    import spark.implicits._
    // The space alone decides: the §5.3 estimate reads 0 on the last two
    // inputs, yet both have provenance. Singleton domains R.A = {1} and
    // R.B = {6} give X < Y the selectivity 0; in the union, the first rule's
    // 4 answers and the second's 1 give p_notProv = min(1, 5 / 3) over the
    // second rule's 3-value head space.
    val single = rex.withDomain("R", 0, Seq(1L).toDF("v")).withDomain("R", 1, Seq(6L).toDF("v"))
    val x      = Vector(Var("X"))
    val union  = Program(
      Rule("q1", "Q", x, Vector(Atom("R", Vector(Var("X"), Var("Y"))))),
      Rule("q2", "Q", x, Vector(Atom("S", x), Atom("T", x))))
    val rst = Catalog("R" -> (10L to 13L).map(a => (a, 0L)).toDF("r_a", "r_b"),
      "S" -> Seq(1L, 2L).toDF("s"), "T" -> Seq(2L, 3L).toDF("t"))
    for ((program, rule, cat, t, size) <- Seq(
        (Queries.rEx, Queries.rEx.rules.head, rex, tEx, 6),
        (Queries.rEx, Queries.rEx.rules.head, single, PTuple("Qex", Vector(Var("X"), Var("Y"))), 2),
        (union, union.rules(1), rst, PTuple("Q", x), 2))) {
      val s = BatchSampler.whynotSample(spark, program, rule, cat, t, cfg)
      assert(s.exists(_.exact), t)
      val full = FullWhyNot.derivations(spark, program, rule, cat, t).get
      assert(s.get.sampleCount == size && multiset(s.get.sample) == multiset(full), t)
      val res = Summarizer.summarize(spark, program, cat, ProvQuestion(t, Whynot),
        Summarizer.Config(k = 3, full = true))
      assert(res.summary.patterns.nonEmpty, t)
    }
  }

  test("whynot sample rows are genuine why-not derivations (airbnb)") {
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, cfg).get
    assert(s.sampleCount > 0)
    val full = FullWhyNot.derivations(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb).get
    // Every sampled row appears in the full enumeration (compare as strings).
    val fullSet = full.collect().map(_.mkString("|")).toSet
    s.sample.collect().foreach(r => assert(fullSet.contains(r.mkString("|")), r))
  }

  test("forced sampling path also returns only genuine derivations") {
    // fullEnumFactor=0 disables the exact-enumeration shortcut.
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 100)
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, forced).get
    assert(!s.exact)
    assert(s.nOS >= 100)
    val full = FullWhyNot.derivations(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb).get
    val fullSet = full.collect().map(_.mkString("|")).toSet
    val rows    = s.sample.collect()
    assert(rows.nonEmpty && rows.length <= 100)
    rows.foreach(r => assert(fullSet.contains(r.mkString("|")), r))
    // Sample has no duplicates (δ applied).
    assert(rows.map(_.mkString("|")).distinct.length == rows.length)
  }

  test("sampling covers a large fraction of a small space at nS close to |Prov|") {
    val forced = cfg.copy(fullEnumFactor = 0.0, nS = 2000, seed = 11L)
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, forced).get
    // 2160 total; 2000 with-replacement draws should reach ~60% of it
    // (E[distinct] ≈ 2160·(1−(1−1/2160)^2000) ≈ 1305).
    assert(s.sampleCount > 1100, s"got ${s.sampleCount}")
  }

  test("provenance-size estimate matches the true count on the airbnb example") {
    val s = BatchSampler.whynotSample(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb, cfg).get
    // All 2160 derivations are why-not (no shared answers exist) → estimate exact.
    assert(math.abs(s.provEstimate - 2160.0) < 1e-6)
  }

  test("p_notProv correction: existing answers shrink the estimate") {
    import spark.implicits._
    val d6  = Seq(1L, 2L, 3L, 4L, 5L, 6L).toDF("v")
    val cat = rex.withDomain("R", 0, d6).withDomain("R", 1, d6)
    val s = BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      cat, tEx, cfg).get
    // Space: X∈{1,2,3} (X<4 pushed into domain), Z∈{1..6} → 18; existing
    // answer (1,4) has 6 derivations → estimate 18·(1 − 1/3) = 12.
    assert(math.abs(s.provEstimate - 12.0) < 1e-6)
    assert(s.sampleCount == 12) // tiny space → exact
  }

  test("whynot sample of an existing answer is None") {
    val t = PTuple("Qex", Vector(Const(1L), Const(4L)))
    assert(BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).isEmpty)
  }

  test("whynot sample with violated static comparison is None") {
    val t = PTuple("Qex", Vector(Const(5L), Const(4L)))
    assert(BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).isEmpty)
  }

  test("ground question (single existential var, head missing)") {
    val t = PTuple("Qex", Vector(Const(2L), Const(4L)))
    val s = BatchSampler.whynotSample(spark, Queries.rEx, Queries.rEx.rules.head,
      rex, t, cfg).get
    assert(s.sampleCount == 6) // Z over {1..6}
    assert(s.varCols == Seq("Z"))
  }

  test("why sample returns successful derivations only") {
    val t = PTuple("AL", Vector(Var("N"), Var("R")))
    val s = BatchSampler.whySample(spark, Queries.airbnb, Queries.airbnb.rules.head, airbnb, t, cfg).get
    assert(s.sampleCount == 2 && s.exact)
    assert(s.provEstimate == 2.0)
    val rows = s.sample.collect()
    rows.foreach { r =>
      s.goalColNames.foreach(g => assert(r.getBoolean(r.fieldIndex(g))))
    }
    // An exact sample is every successful derivation.
    assert(multiset(s.sample) == multiset(WhyProv.derivations(Queries.airbnb.rules.head, airbnb, t).get))
  }

  test("why sample caps at nS when the provenance is larger") {
    val cat = Datasets.license(spark, 1000)
    val t   = PTuple("InvalidD", Vector(Var("C")))
    val s = BatchSampler.whySample(spark, Queries.r1, Queries.r1.rules.head,
      cat, t, cfg.copy(nS = 10)).get
    assert(s.sampleCount == 10)
    assert(!s.exact)
    assert(s.provEstimate > 10)
    // The 10 successful derivations takeN keeps.
    val all = WhyProv.derivations(Queries.r1.rules.head, cat, t).get
    assert(multiset(s.sample) == multiset(BatchSampler.takeN(all, 10, cfg.seed)))
  }

  test("a why rule's provEstimate is its derivation count, and it is exact when nS holds them all") {
    import spark.implicits._
    val license = Datasets.license(spark, 1000)
    val movies  = Datasets.movies(spark, 100)
    // Every row of a 3-row local relation is a derivation: at nS = 3 the
    // optimizer drops takeN's limit, and its sort is a global one.
    val x     = Vector(Var("X"))
    val local = Catalog("S" -> Seq(1L, 2L, 3L).toDF("s"))
    for ((program, cat, pq) <- Seq((Queries.r1, license, Queries.whyR1), (Queries.r4, movies, Queries.whyR4),
        (Program(Rule("q", "Q", x, Vector(Atom("S", x)))), local, ProvQuestion(PTuple("Q", x), Why)))) {
      val counts = program.rules.map(r => r.name -> WhyProv.derivations(r, cat, pq.tuple).fold(0L)(_.count())).toMap
      // nS below, at and above each rule's count, and FULL's nS =
      // Int.MaxValue, where takeN is a global sort too. A global sort reads
      // the derivations twice.
      val sizes = counts.values.toSeq.flatMap(n => Seq(n - 1, n, n + 1)).filter(_ > 0).distinct.sorted
      for (c <- sizes.map(n => cfg.copy(nS = n.toInt)) :+ Summarizer.Config(full = true).sampler) {
        val samples = BatchSampler.sample(spark, program, cat, pq, c)
        assert(samples.map(_.rule.name) == program.rules.map(_.name).filter(counts(_) > 0), c.nS)
        samples.foreach { s =>
          val n = counts(s.rule.name)
          assert(s.provEstimate == n.toDouble && s.exact == (n <= c.nS), (s.rule.name, c.nS, s.provEstimate))
          assert(s.sampleCount == math.min(n, c.nS.toLong), (s.rule.name, c.nS))
        }
      }
    }
  }

  test("takeN is deterministic and bounded") {
    val df = spark.range(0, 100).select(col("id").as("X"))
    val a  = BatchSampler.takeN(df, 10, 1L).collect().map(_.getLong(0)).toSeq
    val b  = BatchSampler.takeN(df, 10, 1L).collect().map(_.getLong(0)).toSeq
    val c  = BatchSampler.takeN(df, 10, 2L).collect().map(_.getLong(0)).toSeq
    assert(a == b)
    assert(a != c)
    assert(a.length == 10)
  }

  test("union-rule sampling: each rule of r4 produces its own sample") {
    val cat = Datasets.movies(spark, 100)
    val t   = PTuple("Players", Vector(Const("tom ford")))
    val samples = Queries.r4.rules.flatMap(r =>
      BatchSampler.whynotSample(spark, Queries.r4, r, cat, t, cfg.copy(nS = 20)))
    assert(samples.size == 3)
    samples.foreach(s => assert(s.sampleCount > 0))
  }
}

object BatchSamplerSpec {

  /** `Q_X` as one `range(n)` per variable, joined to the `row_number`-indexed
    * domain and zipped on the draw id `__sid` — the paper's literal
    * `#_id(SAMPLE_n(…))` per variable, kept as the reference that
    * [[BatchSampler.draw]] must equal as a multiset of tuples.
    */
  def zipDraw(spark: SparkSession, domains: Seq[(DataFrame, Long)], n: Long, seed: Long): DataFrame =
    domains.zipWithIndex.map { case ((dom, size), i) =>
      val v       = dom.columns.head
      val indexed = dom.withColumn("__rid", row_number().over(W.orderBy(v)))
      spark.range(n)
        .select(col("id").as("__sid"),
          (pmod(xxhash64(col("id"), lit(seed + 7919L * (i + 1))), lit(size)) + 1).as("__rid"))
        .join(indexed, "__rid")
        .select(col("__sid"), col(v))
    }.reduce(_.join(_, "__sid")).drop("__sid")

  /** The schema and the broadcast values of `frames`, as the sampler hands
    * them to [[BatchSampler.draw]] and [[DerivationOps.fullSpace]].
    */
  def collected(spark: SparkSession, frames: Seq[DataFrame]): (StructType, Broadcast[Seq[Array[Any]]]) =
    (StructType(frames.map(_.schema.head)), spark.sparkContext.broadcast(DerivationOps.collectArrays(
      frames.map(f => DerivationOps.Input(f, sort_array(collect_list(col(f.columns.head))))))))

  /** The batch-sampled why-not rows of `rule` from [[zipDraw]]: `nOS` zipped
    * draws, then [[DerivationOps.whynotDerivations]], δ and `takeN`.
    */
  def zipSample(spark: SparkSession, program: Program, rule: Rule, catalog: Catalog, t: PTuple,
                nOS: Long, cfg: BatchSampler.Config): DataFrame = {
    val u       = Unify.unify(rule, t).get
    val domains = u.unboundVars.map { v =>
      val d = DerivationOps.varDomain(u.rule, v, catalog)
      (d, d.count())
    }
    val answers = DatalogEval.restrictedAnswers(program, catalog, t)
    val derivations =
      DerivationOps.whynotDerivations(zipDraw(spark, domains, nOS, cfg.seed), answers, catalog, u.rule)
    BatchSampler.takeN(derivations.distinct(), cfg.nS, cfg.seed)
  }
}
