package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import repro.datalog._
import repro.prov.DerivationOps
import repro.sampling.BatchSampler
import repro.summarize.{Coverage, Lca, Summarizer, TopK}
import scala.collection.mutable

/** Spark counters per job group, filled by a listener that is attached only
  * while a traced question runs.
  */
final class GroupCounters extends SparkListener {
  import GroupCounters.Counts

  private val stageGroup = mutable.Map.empty[Int, String]
  private val counts     = mutable.Map.empty[String, Counts].withDefaultValue(Counts(0, 0, 0))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    val c = counts(g)
    counts(g) = c.copy(jobs = c.jobs + 1)
    e.stageIds.foreach(stageGroup(_) = g)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.get(info.stageId).foreach { g =>
      val c = counts(g)
      val shuffle = Option(info.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
      counts(g) = c.copy(tasks = c.tasks + info.numTasks, shuffleBytes = c.shuffleBytes + shuffle)
    }
  }

  def of(group: String): Counts = synchronized(counts(group))
}

object GroupCounters {
  final case class Counts(jobs: Int, tasks: Long, shuffleBytes: Long)
}

/** One span: a call into one layer for one rule of one question. Spans of a
  * question share its number; the question is every span's parent.
  */
final case class Span(question: Int, layer: String, rule: String,
                      startNs: Long, endNs: Long, rows: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  def group: String   = s"q$question/$layer/$rule"
  def json(c: GroupCounters.Counts): String =
    s"""{"question": $question, "layer": "$layer", "rule": "$rule", "start_ns": $startNs, """ +
      s""""end_ns": $endNs, "rows": $rows, "jobs": ${c.jobs}, "tasks": ${c.tasks}, "shuffle_bytes": ${c.shuffleBytes}}"""
}

/** The summarization pipeline of `Summarizer.summarize`, rebuilt from the
  * modules' public functions with one span (and one Spark job group) per
  * call, plus the `datalog` and `prov` probes, which run before each rule's
  * sampling call and are not on the blocking path.
  */
final class TracedPipeline(spark: SparkSession, wl: Workload, catalog: Catalog) {
  import TracedPipeline._

  def run(question: Int, cfg: Summarizer.Config): Outcome = {
    val sc    = spark.sparkContext
    val spans = Vector.newBuilder[Span]
    def span[A](layer: String, rule: String)(body: => A)(rows: A => Long): A = {
      val s = Span(question, layer, rule, 0, 0, 0)
      sc.setJobGroup(s.group, s.group, interruptOnCancel = true)
      val t0 = System.nanoTime()
      try {
        val a = body
        spans += s.copy(startNs = t0, endNs = System.nanoTime(), rows = rows(a))
        a
      } finally sc.clearJobGroup()
    }

    val pq = wl.question
    val program = wl.program
    val samplerCfg = BatchSampler.Config(nS = cfg.nS, pSuccess = cfg.pSuccess,
      seed = cfg.seed, nOSCap = cfg.nOSCap)

    val samples = program.rules.flatMap { r =>
      span("datalog", r.name)(DatalogEval.restrictedAnswers(program, catalog, pq.tuple).count())(identity)
      span("prov", r.name) {
        Unify.unify(r, pq.tuple).toSeq.flatMap(u =>
          u.unboundVars.map(v => DerivationOps.varDomain(u.rule, v, catalog).count())).sum
      }(identity)
      span("sampling", r.name) {
        pq.qtype match {
          case Whynot => BatchSampler.whynotSample(spark, program, r, catalog, pq.tuple, samplerCfg)
          case Why    => BatchSampler.whySample(spark, program, r, catalog, pq.tuple, samplerCfg)
        }
      }(_.map(_.sampleCount).getOrElse(0L))
    }
    val totalProv = samples.map(_.provEstimate).sum

    val cands = samples.map { s =>
      span("lca", s.rule.name) {
        val c = Lca.candidates(s.sample, s.varCols, s.goalColNames).cache()
        (c, c.count())
      }(_._2)._1
    }
    val patterns = samples.zip(cands).flatMap { case (s, c) =>
      span("match", s.rule.name) {
        val counted = Coverage.matchCounts(c, s.sample, s.varCols, s.goalColNames)
        Coverage.collectPatterns(s.rule.name, counted, s.varCols, s.goalColNames,
          s.sampleCount, s.provEstimate / totalProv)
      }(_.size.toLong)
    }.toVector
    val summary =
      if (samples.isEmpty) TopK.Summary(Vector.empty, 0, 0, 0, 0, 0, optimal = true, 0)
      else span("topk", "*")(TopK.summarize(patterns, cfg.k, cfg.maxPatterns, cfg.maxPops))(_.patterns.size.toLong)
    cands.foreach(_.unpersist())

    val sampled  = samples.filterNot(_.exact)
    val distinct = patterns.distinct.size
    val facts = Facts(
      nOS = sampled.map(_.nOS).sum,
      sampledRows = sampled.map(_.sampleCount).sum,
      capHits = samples.count(_.nOS == cfg.nOSCap),
      exactRules = samples.count(_.exact),
      pool = math.min(distinct, cfg.maxPatterns),
      cut = math.max(0, distinct - cfg.maxPatterns))
    Outcome(summary, spans.result(), facts)
  }
}

object TracedPipeline {
  /** Per-layer facts of one traced question that spans do not carry. */
  final case class Facts(nOS: Long, sampledRows: Long, capHits: Int, exactRules: Int,
                         pool: Int, cut: Int)

  final case class Outcome(summary: TopK.Summary, spans: Vector[Span], facts: Facts)
}
