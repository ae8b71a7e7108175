package repro.summarize

import org.apache.spark.sql.functions.{col, concat, lit, raise_error}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.summarize.CatalystReference.multiset

class SummarizerSpec extends SparkSpec {

  private lazy val airbnb = Datasets.airbnb(spark)
  private lazy val rex    = Datasets.runningExample(spark)

  // Qg(A,B) :- R(A,B) and Qc(A,B) :- R(A,B), A < B.
  private val ab       = Vector(Var("A"), Var("B"))
  private val groundQg = Program(Rule("qg", "Qg", ab, Vector(Atom("R", ab))))
  private val groundQc = Program(Rule("qc", "Qc", ab, Vector(Atom("R", ab)),
    Vector(Comparison(Var("A"), CmpOp.Lt, Var("B")))))
  private def tuple(pred: String, a: Long, b: Long) = PTuple(pred, Vector(Const(a), Const(b)))

  /** `Summarizer.summarize`, checked against the Catalyst `Q_lca`/`Q_match`
    * on its own samples: the same (args, goals, cp) multiset.
    */
  private def summarize(program: Program, catalog: Catalog, pq: ProvQuestion,
                        cfg: Summarizer.Config): Summarizer.Result = {
    val res = Summarizer.summarize(spark, program, catalog, pq, cfg)
    assert(multiset(res.allPatterns) == multiset(CatalystReference.pool(res.ruleSamples)), pq)
    res
  }

  test("airbnb why-not summary (FULL): the paper's narrative patterns emerge") {
    val res = summarize(Queries.airbnb, airbnb, Queries.whynotAirbnb,
      Summarizer.Config(nS = 0, k = 3, full = true))
    assert(res.summary.patterns.size == 3)
    assert(math.abs(res.provEstimate - 2160.0) < 1e-9)
    // Ex 3's pattern (shared apts in Queen Anne unavailable) must be among
    // the generated candidates with exact completeness 8/2160.
    val apt = res.allPatterns.find(p =>
      p.goals == Vector(true, false) && p.args == Vector(None, None, Some("apt"), None, None))
    assert(apt.isDefined)
    assert(math.abs(apt.get.cp - 8.0 / 2160.0) < 1e-12)
    // The top-3 summary covers a nontrivial fraction with nonzero info.
    assert(res.summary.cpLow > 0.3)
    assert(res.summary.info > 0.0)
  }

  test("airbnb why-not summary via sampling approximates the FULL one") {
    val full = summarize(Queries.airbnb, airbnb, Queries.whynotAirbnb,
      Summarizer.Config(k = 3, full = true))
    // 2160 valuations: at nS = 500 the space exceeds fullEnumFactor · nS, so
    // the rule is batch-sampled, not enumerated.
    val sampled = summarize(Queries.airbnb, airbnb, Queries.whynotAirbnb,
      Summarizer.Config(nS = 500, k = 3, seed = 13L))
    assert(sampled.ruleSamples.nonEmpty && !sampled.ruleSamples.exists(_.exact))
    assert(sampled.summary.patterns.size == 3)
    // Quality metrics within a loose sampling tolerance of the exact ones.
    assert(math.abs(sampled.summary.info - full.summary.info) < 0.35)
    assert(math.abs(sampled.summary.cpLow - full.summary.cpLow) < 0.25)
  }

  test("why summary on the running example") {
    val res = summarize(Queries.rEx, rex,
      ProvQuestion(PTuple("Qex", Vector(Var("X"), Var("Y"))), Why),
      Summarizer.Config(nS = 100, k = 2))
    // 3 successful derivations: (1,3,2), (1,4,2), (5,6,5); all goals T.
    assert(math.abs(res.provEstimate - 3.0) < 1e-9)
    assert(res.summary.patterns.nonEmpty)
    res.summary.patterns.foreach(p => assert(p.goals == Vector(true, true)))
  }

  test("why-not summary on the running example (exact, tiny space)") {
    val res = summarize(Queries.rEx, rex, Queries.whynotEx,
      Summarizer.Config(nS = 100, k = 3))
    assert(res.ruleSamples.head.exact) // 12-derivation space → full enumeration
    assert(math.abs(res.provEstimate - 6.0) < 1e-9) // X∈{1,2}: 12 bindings − 6 of (1,4)
    assert(res.summary.patterns.nonEmpty)
    // A fully ground rule's space is its one valuation: R(1,9) fails, so
    // the summary is the empty pattern with goals (F), covering everything.
    val g = summarize(groundQg, rex,
      ProvQuestion(tuple("Qg", 1L, 9L), Whynot),
      Summarizer.Config(nS = 100, k = 3))
    assert(g.ruleSamples.map(_.exact) == Vector(true))
    assert(g.summary.patterns.map(p => (p.args, p.goals)) == Vector((Vector.empty, Vector(false))))
    assert(g.summary.patterns.head.cp == 1.0 && g.summary.patterns.head.info == 1.0)
  }

  test("empty provenance yields an empty summary") {
    // Qex(1,4) and Qg(1,2) are existing answers, so neither has why-not
    // provenance; Qg(1,9) is no answer, so it has no why provenance; Qc(5,3)
    // violates 5 < 3. The Qg and Qc rules are fully ground after unification.
    // Qex(10, "9") violates X < Y with Spark's comparison of a number and a
    // numeric string, 10 < 9 (as strings, "10" < "9" would hold). An empty
    // override of R's first column leaves X no value: an empty space.
    // The last four questions have provenance: why, sampled why-not, exact
    // why-not and the r4 union. `exact` is the kind of each rule's sample.
    val movies = Datasets.movies(spark, 80)
    for ((program, catalog, pq, exact) <- Seq(
        (Queries.rEx, rex, ProvQuestion(tuple("Qex", 1L, 4L), Whynot), Vector()),
        (groundQg, rex, ProvQuestion(tuple("Qg", 1L, 2L), Whynot), Vector()),
        (groundQg, rex, ProvQuestion(tuple("Qg", 1L, 9L), Why), Vector()),
        (groundQc, rex, ProvQuestion(tuple("Qc", 5L, 3L), Whynot), Vector()),
        (Queries.rEx, rex, ProvQuestion(PTuple("Qex", Vector(Const(10L), Const("9"))), Whynot), Vector()),
        (Queries.rEx, rex.withDomain("R", 0, spark.range(0).toDF("v")), Queries.whynotEx, Vector()),
        (Queries.rEx, rex, ProvQuestion(PTuple("Qex", Vector(Var("X"), Var("Y"))), Why), Vector(true)),
        (Queries.airbnb, airbnb, Queries.whynotAirbnb, Vector(false)),
        (Queries.rEx, rex, Queries.whynotEx, Vector(true)),
        (Queries.r4, movies, Queries.whynotR4, Vector(false, false, false)))) {
      val before = cacheState
      val res = summarize(program, catalog, pq, Summarizer.Config(nS = 10, k = 3))
      assert(res.ruleSamples.map(_.exact) == exact, pq)
      assert(res.summary.patterns.isEmpty == exact.isEmpty, pq)
      assert(res.allPatterns.isEmpty == exact.isEmpty, pq)
      // A question releases every cache it created, whether or not a rule
      // contributes.
      assert(cacheState == before, pq)
    }
  }

  test("a question that throws during sampling leaves no cache behind") {
    // R's first column as a domain that fails whenever a job reads it:
    // σ_t(Q) is cached and counted, and then the job that collects the
    // domains throws.
    val failing = rex.withDomain("R", 0, spark.range(3)
      .select(raise_error(concat(lit("no domain: "), col("id").cast("string"))).cast("long")))
    val before = (cacheState, broadcasts)
    val e = intercept[Exception](
      Summarizer.summarize(spark, Queries.rEx, failing, Queries.whynotEx, Summarizer.Config(nS = 10)))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(t => String.valueOf(t.getMessage).contains("no domain: ")), e)
    assert(cacheState == before._1)
    eventually(timeout(10.seconds))(assert(broadcasts.subsetOf(before._2)))
    // A throw after the domains are broadcast: the 2160-valuation airbnb
    // space is sampled, and sizing n_OS rejects P_success = 1.
    val e2 = intercept[IllegalArgumentException](Summarizer.summarize(spark, Queries.airbnb, airbnb,
      Queries.whynotAirbnb, Summarizer.Config(nS = 10, pSuccess = 1.0)))
    assert(e2.getMessage.contains("pSuccess=1.0"), e2)
    assert(cacheState == before._1)
    eventually(timeout(10.seconds))(assert(broadcasts.subsetOf(before._2)))
  }

  test("union query: summary draws patterns per rule and weights them") {
    val cat = Datasets.movies(spark, 80)
    val cfg = Summarizer.Config(nS = 60, k = 3, seed = 3L)
    val before = cacheState
    val res = summarize(Queries.r4, cat, Queries.whynotR4, cfg)
    assert(res.ruleSamples.size == 3) // r4, r4', r4'' all contribute
    // The question leaves nothing cached: its samples are driver values.
    assert(cacheState == before)
    // Given the samples, the pattern stage runs no Spark job.
    val ((again, _), jobs) = jobsOf(Summarizer.patterns(res.ruleSamples))
    assert(jobs == 0)
    assert(again == res.allPatterns)
    // A second question, drawn afresh, sees exactly the same pool and
    // leaves nothing cached either; the per-rule provenance-share weights
    // sum to 1.
    val second = Summarizer.summarize(spark, Queries.r4, cat, Queries.whynotR4, cfg)
    assert(second.allPatterns == res.allPatterns)
    assert(cacheState == before)
    val provs = res.ruleSamples.map(_.provEstimate)
    assert(provs.forall(_ > 0) && math.abs(provs.map(_ / provs.sum).sum - 1.0) < 1e-9)
    val ruleNames = res.allPatterns.map(_.ruleName).toSet
    assert(ruleNames.subsetOf(Set("r4", "r4p", "r4pp")) && ruleNames.nonEmpty)
    // Weights sum to 1 across rules: total cp of the all-placeholder
    // patterns (one per rule+goal-vector, covering everything) is ≤ 1.
    assert(res.allPatterns.forall(p => p.cp <= 1.0 + 1e-9))
    assert(res.summary.patterns.nonEmpty)
  }

  test("stage times are populated") {
    val res = summarize(Queries.rEx, rex, Queries.whynotEx,
      Summarizer.Config(nS = 50, k = 2))
    assert(res.times.sampleMs >= 0 && res.times.lcaMs >= 0)
  }

  test("whynot on r1: sampled patterns reflect the valid-swanton structure") {
    val cat = Datasets.license(spark, 300)
    val res = summarize(Queries.r1, cat, Queries.whynotR1,
      Summarizer.Config(nS = 200, k = 3, seed = 5L))
    assert(res.summary.patterns.nonEmpty)
    // Every swanton license is valid, so derivations grounded in a real
    // swanton class-d license fail only on ¬VALID: goal vector (T, F)
    // patterns exist, and no derivation has (T, T) (that would be an answer).
    assert(!res.allPatterns.exists(_.goals == Vector(true, true)))
  }

  test("why summary on r2 covers the witness derivation") {
    val cat = Datasets.license(spark, 300)
    val res = summarize(Queries.r2, cat, Queries.whyR2,
      Summarizer.Config(nS = 100, k = 3))
    assert(res.provEstimate >= 1.0)
    res.summary.patterns.foreach(p => assert(p.goals.forall(identity)))
  }

  test("determinism: same seed, same summary") {
    val a = summarize(Queries.airbnb, airbnb, Queries.whynotAirbnb,
      Summarizer.Config(nS = 300, k = 3, seed = 21L))
    val b = summarize(Queries.airbnb, airbnb, Queries.whynotAirbnb,
      Summarizer.Config(nS = 300, k = 3, seed = 21L))
    assert(a.summary.patterns == b.summary.patterns)
  }
}
