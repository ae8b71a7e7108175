package repro.baseline

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.prov.FullWhyNot

class BaselineSpec extends SparkSpec {

  private lazy val airbnb = Datasets.airbnb(spark)
  private lazy val rex    = Datasets.runningExample(spark)

  test("single derivation: returns one genuine why-not derivation") {
    val before = cacheState
    val e = SingleDerivation.explain(spark, Queries.airbnb, airbnb, Queries.whynotAirbnb).get
    assert(cacheState == before, "explain left a cache behind")
    assert(e.ruleName == "rA")
    assert(e.args.size == 5 && e.goals.size == 2)
    val full = FullWhyNot.derivations(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, Queries.whynotAirbnb.tuple).get
    val fullSet = full.collect().map(r => r.toSeq.map(String.valueOf(_)).mkString("|")).toSet
    val key = (e.args ++ e.goals).map(String.valueOf(_)).mkString("|")
    assert(fullSet.contains(key), s"$key not in why-not provenance")
  }

  test("single derivation: why questions return a successful derivation") {
    val e = SingleDerivation.explain(spark, Queries.rEx, rex,
      ProvQuestion(PTuple("Qex", Vector(Var("X"), Var("Y"))), Why)).get
    assert(e.goals.forall(identity))
  }

  test("single derivation: empty provenance yields None") {
    val e = SingleDerivation.explain(spark, Queries.rEx, rex,
      ProvQuestion(PTuple("Qex", Vector(Const(1L), Const(4L))), Whynot))
    assert(e.isEmpty)
  }

  test("single derivation is deterministic in the seed") {
    val a = SingleDerivation.explain(spark, Queries.airbnb, airbnb, Queries.whynotAirbnb, seed = 1L)
    val b = SingleDerivation.explain(spark, Queries.airbnb, airbnb, Queries.whynotAirbnb, seed = 1L)
    assert(a == b)
  }

  test("Artemis sim: coverage fractions sum to 1 over goal-annotation groups") {
    val ex = ArtemisSim.explain(spark, Queries.airbnb, airbnb, Queries.whynotAirbnb)
    assert(ex.nonEmpty)
    assert(math.abs(ex.map(_._2).sum - 1.0) < 1e-9)
    assert(ex == ex.sortBy(-_._2)) // most-covering first
  }

  test("Artemis sim: the top-1 explanation is maximally general (§9.3 observation)") {
    val cat = Datasets.crimeWitness(spark, 300)
    val ex  = ArtemisSim.explain(spark, Queries.crimeDesc, cat, Queries.whynotCrimeDesc)
    assert(ex.nonEmpty)
    val top = ex.head._1
    // The fold across a large diverse group leaves (almost) only placeholders:
    // all four question attributes are bound, so every unbound arg slot of
    // the biggest group degenerates to a placeholder.
    assert(top.args.count(_.isEmpty) >= top.args.size - 1,
      s"top-1 should be near-all-placeholder, got $top")
  }

  test("Artemis sim: group fold is the LCA of the whole group") {
    val ex = ArtemisSim.explain(spark, Queries.rEx, rex, Queries.whynotEx)
    // Whynot(Qex(X,4)) over active domains: X∈{1,2}, minus X=1 (existing) →
    // 6 derivations with X=2. Groups by goal vector; each folded pattern
    // must retain X=2 (all members agree on it).
    ex.foreach { case (p, _) => assert(p.args.head.contains(2L), s"$p") }
  }

  test("Artemis sim on why provenance folds successful derivations") {
    val ex = ArtemisSim.explain(spark, Queries.rEx, rex,
      ProvQuestion(PTuple("Qex", Vector(Var("X"), Var("Y"))), Why))
    assert(ex.size == 1) // one group: all goals T
    assert(ex.head._1.goals == Vector(true, true))
    assert(math.abs(ex.head._2 - 1.0) < 1e-9)
  }
}
