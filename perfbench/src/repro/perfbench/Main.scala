package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.ListenerBusAccess
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.LogicalRDD
import repro.datalog.Catalog
import repro.summarize.{Summarizer, TopK}
import scala.jdk.CollectionConverters._

/** PUG-Summ benchmark: one client asks one provenance question after another
  * (closed loop, no think time) against `Summarizer.summarize`, checks every
  * answer, and prints the metrics as the last line of standard output.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
  *
  * `--trace 0` reports the end-to-end metrics with no listener attached;
  * `--trace 1` alternates untraced questions with the traced pipeline and
  * reports the per-layer metrics. See WORKLOADS.md for the metric map.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, commit: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, trace == "1",
      kv.getOrElse("commit", "unknown"))
  }

  /** The Spark settings the test suites use, pinned. */
  def session(nproc: Int, scratch: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName("pug-summ-bench")
      .config("spark.sql.shuffle.partitions", 8L)
      .config("spark.sql.codegen.wholeStage", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$scratch/local")
      .config("spark.sql.warehouse.dir", s"$scratch/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s.sparkContext.setCheckpointDir(s"$scratch/checkpoint")
    s
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val args    = parse(argv)
        val wl      = Workloads.byName(args.workload)
        val scratch = sys.props.getOrElse("perfbench.scratch", sys.error("-Dperfbench.scratch is not set"))
        val nproc   = Runtime.getRuntime.availableProcessors()
        val spark   = session(nproc, scratch)
        val sessionS =
          (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
        try {
          val env = Seq(
            "workload" -> wl.name, "seed" -> args.seed.toString, "trace" -> args.trace.toString,
            "master" -> spark.sparkContext.master, "nproc" -> nproc.toString,
            "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
            "spark" -> spark.version, "commit" -> args.commit) ++
            Seq("spark.sql.shuffle.partitions", "spark.sql.codegen.wholeStage",
              "spark.sql.autoBroadcastJoinThreshold", "spark.ui.enabled").map(k => k -> spark.conf.get(k))
          println("# env " + env.map { case (k, v) => s"$k=$v" }.mkString(" "))
          println(new Runner(spark, wl, args, sessionS).run())
          0
        } finally spark.stop()
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      }
    System.out.flush()
    sys.exit(code)
  }
}

/** One benchmark run: set-up, the question loop, the checks and the metrics. */
final class Runner(spark: SparkSession, wl: Workload, args: Main.Args, sessionS: Double) {
  import Runner._
  private val sc = spark.sparkContext
  private val SetupReps = 3
  /** No question starts later than this after JVM start (the run must end
    * within 180 s).
    */
  private val DeadlineS = 150.0

  private def now: Double = System.nanoTime() / 1e9
  private def sinceJvmStart: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  private def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  // ------------------------------------------------------------------ set-up

  /** Generate the catalog and checkpoint the relations the program reads, so
    * no question recomputes the generators and no cache clear can drop them.
    */
  private def materialize(): Catalog = {
    val raw = wl.catalog(spark)
    Catalog(wl.relations.map(n => n -> raw.relation(n).checkpoint(eager = true)): _*)
  }

  private val (catalog, catalogS) = {
    val reps = (1 to SetupReps).map { _ =>
      val t0 = now
      val c  = materialize()
      (c, now - t0)
    }
    (reps.last._1, reps.map(_._2))
  }
  private val catalogRows = wl.relations.map(n => n -> catalog.relation(n).count()).toMap
  private val problems    = Vector.newBuilder[String]
  if (sc.getPersistentRDDs.nonEmpty) problems += s"set-up left ${sc.getPersistentRDDs.size} RDDs persisted"

  // -------------------------------------------------------------- questions

  private def config(i: Int) = Summarizer.Config(nS = wl.nS, k = wl.k, seed = wl.questionSeed(args.seed, i))

  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Set when a timed-out question would not stop; no question starts after. */
  @volatile private var abandoned = false

  /** Run `body` on its own thread under the workload's budget. A throw is an
    * error, an overrun a timeout: its jobs are cancelled through the tag and
    * the thread is interrupted.
    */
  private def budgeted[A](tag: String)(body: => A): (Either[String, A], Double) = {
    @volatile var out: Either[Throwable, A] = null
    @volatile var secs = 0.0
    val t = new Thread(() => {
      sc.addJobTag(tag)
      val t0 = now
      try out = Right(body)
      catch { case e: Throwable => out = Left(e) }
      finally { secs = now - t0; sc.removeJobTag(tag) }
    }, tag)
    t.setDaemon(true)
    t.start()
    t.join((wl.budgetS * 1000).toLong)
    if (t.isAlive) {
      sc.cancelJobsWithTag(tag)
      t.interrupt()
      t.join(30000L)
      abandoned = t.isAlive
      (Left(s"timeout: over ${wl.budgetS} s" + (if (abandoned) ", did not stop" else "")), wl.budgetS)
    } else out match {
      case Right(a) => (Right(a), secs)
      case Left(e)  => (Left(s"error: ${e.getClass.getName}: ${e.getMessage}".take(400)), secs)
    }
  }

  /** Clear every cache the question left, through the cache manager (a bare
    * `unpersist` of the RDDs leaves its entries, and later questions would
    * recompute from lineage); then verify nothing is left.
    */
  private def isolate(tag: String): Unit = {
    spark.catalog.clearCache()
    val left = sc.getPersistentRDDs
    if (left.nonEmpty) {
      problems += s"$tag: ${left.size} RDDs still persisted after clearCache"
      left.values.foreach(_.unpersist(blocking = true))
    }
  }

  /** Heap in use right after a full GC, read from the GC's own record of
    * each heap pool, so allocations made after the collection do not count.
    */
  private def heapAfterGc(): Double = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
      .map(_.getCollectionUsage.getUsed).sum / 1048576.0
  }

  private def ask(i: Int): Answer = {
    val cfg = config(i)
    val gc0 = gcSeconds
    val (out, secs) = budgeted(s"q$i")(
      Summarizer.summarize(spark, wl.program, catalog, wl.question, cfg))
    val gcS = gcSeconds - gc0
    val leaked   = sc.getPersistentRDDs.keySet
    val leakedMb = sc.getRDDStorageInfo.filter(r => leaked(r.id))
      .map(r => (r.memSize + r.diskSize) / 1048576.0).sum
    val (failure, summary, short) = out match {
      case Left(f) => (Some(f), None, false)
      case Right(res) =>
        val violations =
          try Checks.answer(wl.question, wl.k, res, Checks.collectSamples(res))
          catch { case e: Throwable => Vector(s"checking threw ${e.getClass.getName}: ${e.getMessage}") }
        val short = res.ruleSamples.exists(s => !s.exact && s.sampleCount < wl.nS)
        (violations.headOption.map(v => s"check: $v (${violations.size} violations)"), Some(res.summary), short)
    }
    isolate(s"q$i")
    val a = Answer(secs, failure, summary, short, leaked.size, leakedMb, gcS, heapAfterGc())
    println(f"# q$i seed=${cfg.seed} ${a.seconds}%.3f s ${failure.getOrElse("ok")} " +
      summary.map(s => f"scLow=${s.scLow}%.4f cpLow=${s.cpLow}%.4f optimal=${s.optimal} pops=${s.pops}").getOrElse("") +
      s" short=$short leaked_rdds=${a.leakedRdds}")
    a
  }

  private def askTraced(i: Int, expected: Option[TopK.Summary]): TracedAnswer = {
    val counters = new GroupCounters
    sc.addSparkListener(counters)
    val pipeline = new TracedPipeline(spark, wl, catalog)
    val (out, secs) =
      try budgeted(s"t$i")(pipeline.run(i, config(i)))
      finally { ListenerBusAccess.drain(sc); sc.removeSparkListener(counters) }
    isolate(s"t$i")
    val failure = out match {
      case Left(f) => Some(f)
      case Right(o) => expected.flatMap(e => Checks.sameSummary(e, o.summary).map("check: " + _))
    }
    val counts = out.toOption.toSeq.flatMap(_.spans).map(s => s.group -> counters.of(s.group)).toMap
    println(f"# t$i ${secs}%.3f s ${failure.getOrElse("ok")}")
    TracedAnswer(secs, failure, out.toOption, counts)
  }

  // ------------------------------------------------------------------- loop

  def run(): String = {
    val answers = Vector.newBuilder[Answer]
    val traced  = Vector.newBuilder[TracedAnswer]
    val cold    = ask(0)
    answers += cold
    val t0 = now
    var i = 1
    var slowest = cold.seconds
    def mayStart = !abandoned && sinceJvmStart + 1.5 * slowest < DeadlineS
    while (mayStart && (now - t0 < args.seconds || i < wl.fixedQuestions)) {
      val a = ask(i)
      answers += a
      slowest = math.max(slowest, a.seconds)
      if (args.trace && mayStart) {
        val t = askTraced(i, a.summary)
        traced += t
        slowest = math.max(slowest, t.seconds)
      }
      i += 1
    }
    val loopS = now - t0
    if (i < wl.fixedQuestions) problems += s"only $i of ${wl.fixedQuestions} fixed questions fit the deadline"
    checkCatalog()

    val all  = answers.result()
    val trs  = traced.result()
    val warm = all.tail
    val failed  = all.count(_.failure.nonEmpty) + trs.count(_.failure.nonEmpty)
    val attempted = all.size + trs.size
    val probs   = problems.result()
    probs.foreach(p => println(s"# problem: $p"))
    for (t <- trs; o <- t.out; s <- o.spans) println("# span " + s.json(t.counts(s.group)))
    val ok = all.filter(_.failure.isEmpty)
    val fixed   = all.take(wl.fixedQuestions)
    val quality = fixed.flatMap(_.summary)

    val shares = Seq(
      "failed_share" -> (failed.toDouble / attempted, "ratio"),
      "short_sample_share" -> (ok.count(_.shortSample).toDouble / math.max(1, ok.size), "ratio"),
      "certified_share" -> (ok.count(_.summary.exists(_.optimal)).toDouble / math.max(1, ok.size), "ratio"),
    )
    val warmOk = warm.filter(_.failure.isEmpty)
    val metrics: Seq[(String, (Double, String))] =
      if (!args.trace) Seq(
        "setup_s" -> (sessionS + median(catalogS), "s"),
        "cold_question_s" -> (cold.seconds, "s"),
        "question_s.p50" -> (if (warmOk.isEmpty) Double.NaN else median(warmOk.map(_.seconds)), "s"),
        "questions_per_min" -> (warmOk.size * 60.0 / warm.map(_.seconds).sum, "1/min"),
        "summary_score_low" -> (mean(quality.map(_.scLow)), "ratio"),
        "summary_cp_low" -> (mean(quality.map(_.cpLow)), "ratio"),
        "heap_mb" -> (fixed.map(_.heapMb).max, "MB"),
      )
      else layerMetrics(warm, trs) ++ shares

    println(f"# counts: questions=${all.size} warm=${warm.size} question_s.count=${warmOk.size} traced=${trs.size} " +
      f"loop_s=$loopS%.2f quality_questions=${quality.size} setup_catalog_s=${catalogS.map(s => f"$s%.3f").mkString(",")} " +
      f"session_s=$sessionS%.3f leaked_rdds=${all.map(_.leakedRdds).mkString(",")}")
    if (!args.trace) println("# shares: " + shares.map { case (n, (v, _)) => s"$n=$v" }.mkString(" "))
    val finite  = metrics.forall(_._2._1.isFinite)
    val correct = failed == 0 && probs.isEmpty && finite
    val body = metrics.map { case (n, (v, u)) =>
      s""""$n": {"value": ${if (v.isFinite) v.toString else "0"}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }

  /** The catalog must still be the checkpoint after all the cache clears. */
  private def checkCatalog(): Unit = wl.relations.foreach { n =>
    val df = catalog.relation(n)
    if (!df.queryExecution.logical.isInstanceOf[LogicalRDD])
      problems += s"relation $n is no longer read from its checkpoint"
    if (df.count() != catalogRows(n)) problems += s"relation $n changed size"
  }

  // ------------------------------------------------------------ per-layer

  private def layerMetrics(warm: Seq[Answer], trs: Seq[TracedAnswer]): Seq[(String, (Double, String))] = {
    val done = trs.filter(t => t.failure.isEmpty && t.out.nonEmpty)
    if (done.isEmpty) return Seq("trace.questions" -> (Double.NaN, "count"))
    def perQ(f: TracedAnswer => Double): Double = median(done.map(f))
    def spans(t: TracedAnswer, layer: String) = t.out.get.spans.filter(_.layer == layer)
    def secs(layer: String)  = perQ(t => spans(t, layer).map(_.seconds).sum)
    def rows(layer: String)  = perQ(t => spans(t, layer).map(_.rows.toDouble).sum)
    def count(layer: String)(f: GroupCounters.Counts => Double) =
      perQ(t => spans(t, layer).map(s => f(t.counts(s.group))).sum)
    def jobs(layer: String)    = count(layer)(_.jobs.toDouble)
    def shuffle(layer: String) = count(layer)(_.shuffleBytes / 1048576.0)
    def fact(f: TracedPipeline.Facts => Double) = perQ(t => f(t.out.get.facts))
    val blocking = Seq("sampling", "lca", "match", "topk")
    val untracedS = median(warm.filter(_.failure.isEmpty).map(_.seconds))
    Seq(
      "sampling.s" -> (secs("sampling"), "s"),
      "sampling.jobs" -> (jobs("sampling"), "count"),
      "sampling.tasks" -> (count("sampling")(_.tasks.toDouble), "count"),
      "sampling.shuffle_mb" -> (shuffle("sampling"), "MB"),
      "sampling.rows" -> (rows("sampling"), "count"),
      "sampling.n_os" -> (fact(_.nOS.toDouble), "count"),
      "sampling.hit_rate" -> (fact(f => if (f.nOS == 0) 0.0 else f.sampledRows.toDouble / f.nOS), "ratio"),
      "sampling.cap_hits" -> (fact(_.capHits.toDouble), "count"),
      "sampling.exact_rules" -> (fact(_.exactRules.toDouble), "count"),
      "datalog.answers_s" -> (secs("datalog"), "s"),
      "datalog.answers_jobs" -> (jobs("datalog"), "count"),
      "datalog.answers_rows" -> (rows("datalog"), "count"),
      "prov.domains_s" -> (secs("prov"), "s"),
      "prov.domains_jobs" -> (jobs("prov"), "count"),
      "prov.domain_rows" -> (rows("prov"), "count"),
      "lca.s" -> (secs("lca"), "s"),
      "lca.jobs" -> (jobs("lca"), "count"),
      "lca.shuffle_mb" -> (shuffle("lca"), "MB"),
      "lca.candidates" -> (rows("lca"), "count"),
      "match.s" -> (secs("match"), "s"),
      "match.jobs" -> (jobs("match"), "count"),
      "match.shuffle_mb" -> (shuffle("match"), "MB"),
      "match.patterns" -> (rows("match"), "count"),
      "topk.s" -> (secs("topk"), "s"),
      "topk.pops" -> (perQ(_.out.get.summary.pops.toDouble), "count"),
      "topk.certified" -> (perQ(t => if (t.out.get.summary.optimal) 1.0 else 0.0), "ratio"),
      "topk.pool" -> (fact(_.pool.toDouble), "count"),
      "topk.cut" -> (fact(_.cut.toDouble), "count"),
      "cache.leaked_rdds" -> (median(warm.map(_.leakedRdds.toDouble)), "count"),
      "cache.leaked_mb" -> (median(warm.map(_.leakedMb)), "MB"),
      "jvm.gc_s" -> (mean(warm.map(_.gcS)), "s"),
      "trace.overhead_s" -> (perQ(_.seconds) - untracedS, "s"),
      "trace.unaccounted_s" -> (perQ(t => t.seconds - blocking.map(l => spans(t, l).map(_.seconds).sum).sum), "s"),
    )
  }
}

object Runner {
  final case class Answer(seconds: Double, failure: Option[String], summary: Option[TopK.Summary],
                          shortSample: Boolean, leakedRdds: Int, leakedMb: Double,
                          gcS: Double, heapMb: Double)

  final case class TracedAnswer(seconds: Double, failure: Option[String],
                                out: Option[TracedPipeline.Outcome], counts: Map[String, GroupCounters.Counts])
}
