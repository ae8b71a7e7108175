package repro.prov

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.{Oracle, SparkSpec}
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.sampling.{BatchSampler, BatchSamplerSpec}

/** Ground-truth provenance checks straight from the paper's examples:
  * Fig 1/Ex 1 (2160 why-not derivations for AL(N, shared)), the Fig 3
  * running example, and Ex 9.
  */
class ProvenanceSpec extends SparkSpec {

  private lazy val rex    = Datasets.runningExample(spark)
  private lazy val airbnb = Datasets.airbnb(spark)
  private val tEx         = PTuple("Qex", Vector(Var("X"), Const(4L)))
  private val tAirbnb     = PTuple("AL", Vector(Var("N"), Const("shared")))

  // Rules over R(A, B) that are fully ground once unified with a p-tuple of
  // two constants: Qg(A,B) :- R(A,B); Qn(A,B) :- R(A,B), ¬R(B,A);
  // Qc(A,B) :- R(A,B), A < B.
  private val ab = Vector(Var("A"), Var("B"))
  private val qg = Program(Rule("qg", "Qg", ab, Vector(Atom("R", ab))))
  private val qn = Program(Rule("qn", "Qn", ab,
    Vector(Atom("R", ab), Atom("R", ab.reverse, negated = true))))
  private val qc = Program(Rule("qc", "Qc", ab, Vector(Atom("R", ab)),
    Vector(Comparison(Var("A"), CmpOp.Lt, Var("B")))))
  private def tuple(pred: String, a: Long, b: Long) = PTuple(pred, Vector(Const(a), Const(b)))
  private def goalRows(df: DataFrame): Seq[Seq[Boolean]] =
    df.collect().toSeq.map(r => (0 until r.size).map(r.getBoolean))

  // ------------------------------------------------------------ why capture

  test("why derivations of Qex(X,4) are the successful derivations of (1,4)") {
    val df = WhyProv.derivations(Queries.rEx.rules.head, rex, PTuple("Qex", Vector(Var("X"), Const(4L)))).get
    val got = df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got == Set((1L, 2L))) // X=1, Z=2 — the only successful derivation
    assert(df.columns.toSeq == Seq("X", "Z", "g0", "g1"))
    assert(df.collect().forall(r => r.getBoolean(2) && r.getBoolean(3)))
  }

  test("why derivations of the airbnb query match its two answers") {
    val df = WhyProv.derivations(Queries.airbnb.rules.head,
      airbnb, PTuple("AL", Vector(Var("N"), Var("R")))).get
    // Successful: cozy homebase (2445, $45) and modern view (2332, $350).
    assert(df.count() == 2)
  }

  test("why derivations respect a constant-bound head") {
    val df = WhyProv.derivations(Queries.airbnb.rules.head,
      airbnb, PTuple("AL", Vector(Const("modern view"), Var("R")))).get
    assert(df.count() == 1)
  }

  test("why provenance of an unmatched p-tuple is empty") {
    val df = WhyProv.derivations(Queries.airbnb.rules.head, airbnb, tAirbnb).get
    assert(df.isEmpty) // no shared room is an answer
  }

  // ------------------------------------------------- full why-not (Fig 1)

  test("Ex 1: 2160 why-not derivations for AL(N, shared) on S-Airbnb") {
    val df = FullWhyNot.derivations(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb).get
    assert(df.count() == 2160) // 6 names × 6 ids × 3 ptypes × 5 neighbors × 4 prices
  }

  test("Ex 3: pattern p1 (apt, goals TF) covers 8 of 2160 derivations") {
    val df = FullWhyNot.derivations(spark, Queries.airbnb, Queries.airbnb.rules.head,
      airbnb, tAirbnb).get
    // Vars of unified rule: I, N (head), T, E, P → first-occurrence order
    // is N (head) then I, T, E, P.
    val u = Unify.unify(Queries.airbnb.rules.head, tAirbnb).get
    assert(u.unboundVars.map(_.name) == Vector("N", "I", "T", "E", "P"))
    // Goal 1 (listing exists, shared apt in queen anne) T, goal 2 (availability) F:
    // listings 8403 (central place, east) and 8575 (near spaceneedle, lower),
    // each at 4 possible prices.
    val covered = df.where(col("T") === "apt" && col("g0") === true && col("g1") === false)
      .where(col("N") === col("N")) // no-op, keeps lineage simple
    val rows = covered.collect()
    val consistent = rows.filter { r =>
      val byId = Map(8403L -> ("central place", "east"), 8575L -> ("near spaceneedle", "lower"))
      byId.get(r.getLong(r.fieldIndex("I")))
        .exists { case (n, e) => r.getString(r.fieldIndex("N")) == n && r.getString(r.fieldIndex("E")) == e }
    }
    assert(consistent.length == 8)
  }

  test("Fig 3: why-not of Qex(X,4) has 12 derivations over D = {1..6}") {
    // Domains: X bound to R.A (σ_{X<4} gives {1,2}∪... ); the paper uses
    // D = {1..6} for both variables, so override the domains.
    import spark.implicits._
    val d6  = Seq(1L, 2L, 3L, 4L, 5L, 6L).toDF("v")
    val cat = rex.withDomain("R", 0, d6).withDomain("R", 1, d6)
    val df  = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, cat, tEx).get
    // X ∈ {1,2,3} (X < 4), Z ∈ {1..6} = 18 bindings, minus the 6 derivations
    // of the existing answer (1,4) → 12.
    assert(df.count() == 12)
    assert(df.where(col("X") === 1L).isEmpty)
  }

  test("Ex 9: derivations for X=2 carry the goal annotations from the paper") {
    import spark.implicits._
    val d6  = Seq(1L, 2L, 3L, 4L, 5L, 6L).toDF("v")
    val cat = rex.withDomain("R", 0, d6).withDomain("R", 1, d6)
    val df  = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, cat, tEx).get
    val got = df.where(col("X") === 2L).collect()
      .map(r => (r.getLong(r.fieldIndex("Z")),
        (r.getBoolean(r.fieldIndex("g0")), r.getBoolean(r.fieldIndex("g1"))))).toMap
    // Per Ex 6: (2,2)-(F,T) since R(2,2) is absent but R(2,4) exists.
    // (Ex 9's derivation list is hypothetical — "assume that Prov(Φex) is".)
    // R(2,3), R(2,4) exist → g0=T for Z∈{3,4}; no R(Z,4) for Z≠2 → g1=F.
    assert(got == Map(
      1L -> (false, false), 2L -> (false, true), 3L -> (true, false),
      4L -> (true, false), 5L -> (false, false), 6L -> (false, false)))
  }

  test("goal annotations agree with DuckDB outer-join flags") {
    import spark.implicits._
    val d6  = Seq(1L, 2L, 3L, 4L, 5L, 6L).toDF("v")
    val cat = rex.withDomain("R", 0, d6).withDomain("R", 1, d6)
    val df  = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, cat, tEx).get
      .select(col("X"), col("Z"), col("g0").cast("string").as("g0"),
        col("g1").cast("string").as("g1"))
    Oracle.assertEquivalent(df,
      """WITH dom AS (SELECT * FROM (VALUES (1),(2),(3),(4),(5),(6)) AS t(v)),
        |bind AS (SELECT dx.v AS x, dz.v AS z FROM dom dx, dom dz WHERE dx.v < 4),
        |missing AS (
        |  SELECT b.* FROM bind b WHERE NOT EXISTS (
        |    SELECT 1 FROM R r1, R r2
        |    WHERE r1.r_b = r2.r_a AND CAST(r1.r_a AS BIGINT) < CAST(r2.r_b AS BIGINT)
        |      AND CAST(r2.r_b AS BIGINT) = 4 AND CAST(r1.r_a AS BIGINT) = b.x))
        |SELECT DISTINCT m.x AS X, m.z AS Z,
        |  CASE WHEN EXISTS (SELECT 1 FROM R r WHERE CAST(r.r_a AS BIGINT) = m.x
        |                      AND CAST(r.r_b AS BIGINT) = m.z)
        |       THEN 'true' ELSE 'false' END AS g0,
        |  CASE WHEN EXISTS (SELECT 1 FROM R r WHERE CAST(r.r_a AS BIGINT) = m.z
        |                      AND CAST(r.r_b AS BIGINT) = 4)
        |       THEN 'true' ELSE 'false' END AS g1
        |FROM missing m""".stripMargin,
      "R" -> rex.relation("R"))
  }

  test("why-not excludes derivations of existing answers") {
    val df = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, rex, tEx).get
    val answers = DatalogEval.restrictedAnswers(Queries.rEx, rex, tEx)
      .collect().map(_.getLong(0)).toSet
    val xs = df.select("X").collect().map(_.getLong(0)).toSet
    assert(xs.intersect(answers).isEmpty)
    // Only the answers a head can take remove its derivations: over
    // σ_t(Q) = {(2, 'a'), (1, 'b')}, h1's head Q(X, 'a') takes (2, 'a') alone,
    // so X = 1 derives the missing answer (1, 'a').
    import spark.implicits._
    val (x, y) = (Var("X"), Var("Y"))
    val hs  = Program(Rule("h1", "Q", Vector(x, Const("a")), Vector(Atom("R", Vector(x)), Atom("T", Vector(x)))),
      Rule("h2", "Q", Vector(x, y), Vector(Atom("S", Vector(x, y)))))
    val cat = Catalog("R" -> Seq(1L, 2L).toDF("r"), "T" -> Seq(2L).toDF("t"), "S" -> Seq((1L, "b")).toDF("s_a", "s_b"))
    val h1  = FullWhyNot.derivations(spark, hs, hs.rules.head, cat, PTuple("Q", Vector(Var("A"), Var("B")))).get
    assert(h1.collect().toSeq == Seq(Row(1L, true, false)))
  }

  test("negated-goal annotation is inverted (r1 on a small license set)") {
    val cat = Datasets.license(spark, 200)
    val t   = PTuple("InvalidD", Vector(Const("swanton")))
    val df  = FullWhyNot.derivations(spark, Queries.r1, Queries.r1.rules.head, cat, t).get
    // Swanton licenses all VALID: derivations grounded on a real swanton
    // class-d license have g0 = T (listing exists) and g1 = F (¬VALID fails
    // because the id IS valid).
    val valid = cat.relation("VALID").collect().map(_.getLong(0)).toSet
    df.collect().foreach { (r: Row) =>
      val i  = r.getLong(r.fieldIndex("I"))
      val g1 = r.getBoolean(r.fieldIndex("g1"))
      assert(g1 == !valid.contains(i), s"¬VALID($i) should be ${!valid.contains(i)}")
    }
  }

  test("ground derivation: fully bound why-not question") {
    val t  = PTuple("Qex", Vector(Const(2L), Const(4L)))
    val u  = Unify.unify(Queries.rEx.rules.head, t).get
    assert(u.unboundVars.map(_.name) == Vector("Z"))
    val df = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, rex, t).get
    // Z ranges over adom of R's columns = {1,2,3,4,5,6}; (2,4) is missing →
    // all Z bindings are why-not derivations.
    assert(df.count() == 6)
    // Fully ground rules: the one empty valuation, annotated. R(1,9) is
    // absent; R(5,5) exists, so ¬R(5,5) fails.
    val g = FullWhyNot.derivations(spark, qg, qg.rules.head, rex, tuple("Qg", 1L, 9L)).get
    assert(g.columns.toSeq == Seq("g0"))
    assert(goalRows(g) == Seq(Seq(false)))
    val n = FullWhyNot.derivations(spark, qn, qn.rules.head, rex, tuple("Qn", 5L, 5L)).get
    assert(goalRows(n) == Seq(Seq(true, false)))
  }

  test("ground derivation helper: violated comparison yields empty") {
    val t  = PTuple("Qex", Vector(Const(5L), Const(4L))) // 5 < 4 is false
    assert(FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, rex, t).get.isEmpty)
    // The same on a fully ground rule: 5 < 3 is false, and so is 5 < 5 for
    // the existing R(5,5).
    assert(FullWhyNot.derivations(spark, qc, qc.rules.head, rex, tuple("Qc", 5L, 3L)).get.isEmpty)
    assert(WhyProv.derivations(qc.rules.head, rex, tuple("Qc", 5L, 5L)).get.isEmpty)
  }

  test("why-not of an existing answer is empty") {
    val t  = PTuple("Qex", Vector(Const(1L), Const(4L))) // (1,4) exists
    val df = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, rex, t).get
    assert(df.isEmpty)
    // Qg(1,2) exists over a fully ground rule: no why-not derivation, and
    // its why provenance is the one successful derivation.
    val g = tuple("Qg", 1L, 2L)
    assert(FullWhyNot.derivations(spark, qg, qg.rules.head, rex, g).get.isEmpty)
    assert(goalRows(WhyProv.derivations(qg.rules.head, rex, g).get) == Seq(Seq(true)))
  }

  test("fullSpace over the collected domains equals their cross product") {
    def multiset(df: DataFrame) = df.collect().map(_.mkString("|")).toSeq.sorted
    val empty = rex.withDomain("R", 0, spark.range(0).toDF("v"))
    for ((rule, cat, t, size) <- Seq(
        (Queries.rEx.rules.head, rex, tEx, 12),             // X ∈ {1, 2}, Z ∈ {1..6}
        (Queries.airbnb.rules.head, airbnb, tAirbnb, 2160),
        (qg.rules.head, rex, tuple("Qg", 1L, 9L), 1),       // ground: the empty valuation
        (Queries.rEx.rules.head, empty, tEx, 0))) {         // X has no value
      val u      = Unify.unify(rule, t).get
      val frames = u.unboundVars.map(v => DerivationOps.varDomain(u.rule, v, cat))
      val (schema, values) = BatchSamplerSpec.collected(spark, frames)
      val space  = DerivationOps.fullSpace(spark, schema, values)
      val ref    = DerivationOps.crossSpace(spark, frames)
      assert(space.columns.toSeq == ref.columns.toSeq, t)
      val rows = multiset(space)
      assert(rows.size == size && rows == multiset(ref), t)
    }
    // More valuations than a range can number: a clear error, not an overflow.
    val wide = spark.sparkContext.broadcast(Seq.fill(5)(Array.tabulate[Any](10000)(_.toLong)))
    val e = intercept[IllegalArgumentException](DerivationOps.fullSpace(spark,
      StructType((1 to 5).map(i => StructField(s"V$i", LongType))), wide))
    assert(e.getMessage.contains("1" + "0" * 20 + " valuations"), e)
    wide.destroy()
  }

  test("varDomain unions the domains of all attributes a variable binds to") {
    val u = Unify.unify(Queries.rEx.rules.head, tEx).get
    // Z occurs at R.B (atom 0 pos 1) and R.A (atom 1 pos 0): {2,3,4,5,6} ∪ {1,2,5}.
    val z = DerivationOps.varDomain(u.rule, Var("Z"), rex).collect().map(_.getLong(0)).toSet
    assert(z == Set(1L, 2L, 3L, 4L, 5L, 6L))
    // X occurs at R.A only, and X<4 is pushed below: {1,2,5} ∩ (<4) = {1,2}.
    val x = DerivationOps.varDomain(u.rule, Var("X"), rex).collect().map(_.getLong(0)).toSet
    assert(x == Set(1L, 2L))
    // The union is deduplicated once: one aggregate, not one per attribute
    // and another over their union.
    val plan = DerivationOps.varDomain(u.rule, Var("Z"), rex).queryExecution.optimizedPlan
    assert(plan.collect { case a: Aggregate => a }.size == 1, plan)
    // A NULL in an overridden attribute domain is no value: it reaches no
    // variable domain, no FULL derivation and no sample row.
    import spark.implicits._
    val withNull = rex.withDomain("R", 0, Seq(Some(1L), None, Some(2L), Some(5L)).toDF("v"))
    val t   = PTuple("Qex", Vector(Var("X"), Var("Y")))
    val all = Unify.unify(Queries.rEx.rules.head, t).get
    def column(df: DataFrame) = df.collect().toSeq.map(_.get(0))
    val doms = all.unboundVars.map(v => v.name -> column(DerivationOps.varDomain(all.rule, v, withNull))).toMap
    assert(doms.map { case (v, d) => v -> d.toSet } ==
      Map("X" -> Set(1L, 2L, 5L), "Z" -> (1L to 6L).toSet, "Y" -> (2L to 6L).toSet))
    assert(doms.values.forall(d => d.distinct.size == d.size))
    val full    = FullWhyNot.derivations(spark, Queries.rEx, Queries.rEx.rules.head, withNull, t).get.collect()
    val sampled = BatchSampler.sample(spark, Queries.rEx, withNull, ProvQuestion(t, Whynot),
      BatchSampler.Config(nS = 10)).flatMap(_.rows)
    assert(full.nonEmpty && sampled.size == 10)
    assert(!(full ++ sampled).exists(_.anyNull))
  }

  test("ground comparisons evaluate constants in the plan") {
    // A rule whose one comparison is ground: its bindings are all of R or none.
    def holds(a: Any, op: CmpOp, b: Any) =
      !DatalogEval.bindings(Rule("t", "Q", Vector(Var("X")), Vector(Atom("R", Vector(Var("X"), Var("Y")))),
        Vector(Comparison(Const(a), op, Const(b)))), rex).isEmpty
    assert(holds(3L, CmpOp.Lt, 4L))
    assert(!holds(5L, CmpOp.Lt, 4L))
    assert(holds("a", CmpOp.Neq, "b"))
    assert(holds(4L, CmpOp.Geq, 4L))
    assert(holds("2016-11-09", CmpOp.Lt, "2016-11-10"))
    // A number and a numeric string compare as numbers: 10 < 9 is false.
    assert(!holds(10L, CmpOp.Lt, "9"))
  }

  test("building a provenance plan starts no Spark job") {
    // Q(I) :- VALID(I), LICENSE(I,B,G,C,T,L) for Q(6): VALID(6) is a ground goal.
    val cat = Datasets.license(spark, 200)
    val q = Program(Rule("q", "Q", Vector(Var("I")), Vector(Atom("VALID", Vector(Var("I"))),
      Atom("LICENSE", Vector("I", "B", "G", "C", "T", "L").map(Var(_))))))
    val t = PTuple("Q", Vector(Const(6L)))
    val ((whynot, why), jobs) = jobsOf((
      FullWhyNot.derivations(spark, q, q.rules.head, cat, t).get,
      WhyProv.derivations(q.rules.head, cat, t).get))
    assert(jobs == 0)
    // License 6 exists and is valid: Q(6) is an answer with one derivation.
    assert(whynot.isEmpty)
    assert(goalRows(why.select("g0", "g1")) == Seq(Seq(true, true)))
  }
}
