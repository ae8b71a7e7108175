package repro.datalog

import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{Datasets, Queries}

/** Oracle-checked evaluation of UCQ¬< rules: every Datalog query result is
  * diffed against the equivalent SQL run on DuckDB.
  */
class DatalogEvalSpec extends SparkSpec {

  private lazy val rex   = Datasets.runningExample(spark)
  private lazy val rDf   = rex.relation("R")

  test("Fig 3: Qex answers are (1,3), (1,4), (5,6)") {
    val got = DatalogEval.answers(Queries.rEx, rex).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got == Set((1L, 3L), (1L, 4L), (5L, 6L)))
  }

  test("Fig 3: Qex agrees with DuckDB") {
    val df = DatalogEval.answers(Queries.rEx, rex)
    Oracle.assertEquivalent(
      df.select(col("c0"), col("c1")),
      """SELECT DISTINCT CAST(r1.r_a AS BIGINT) AS c0, CAST(r2.r_b AS BIGINT) AS c1
        |FROM R r1, R r2
        |WHERE r1.r_b = r2.r_a AND CAST(r1.r_a AS BIGINT) < CAST(r2.r_b AS BIGINT)""".stripMargin,
      "R" -> rDf)
  }

  test("bindings enumerates all satisfying valuations of Qex") {
    val b = DatalogEval.bindings(Queries.rEx.rules.head, rex)
    assert(b.columns.toSeq == Seq("X", "Y", "Z"))
    val got = b.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSet
    // Paths: 1-2-3, 1-2-4, 5-5-6 (X<Y holds); 5-5-3 and 5-5-5 fail X<Y.
    assert(got == Set((1L, 3L, 2L), (1L, 4L, 2L), (5L, 6L, 5L)))
  }

  test("r1 (negation): invalid-license cities agree with DuckDB") {
    val cat = Datasets.license(spark, 500)
    val df  = DatalogEval.answers(Queries.r1, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT l.l_city AS c0
        |FROM LICENSE l
        |WHERE l.l_class = 'd'
        |  AND NOT EXISTS (SELECT 1 FROM VALID v WHERE v.v_id = l.l_id)""".stripMargin,
      "LICENSE" -> cat.relation("LICENSE"), "VALID" -> cat.relation("VALID"))
    // An anti-join's result does not depend on duplicates on its right side,
    // so the negated goal is not deduplicated: the why-unified bindings
    // aggregate only for their own δ. (A δ below the anti-join made it 3:
    // Catalyst copies the anti-join into both branches of LICENSE's union.)
    val u = Unify.unify(Queries.r1.rules.head, Queries.whyR1.tuple).get
    val plan = DatalogEval.bindings(u.rule, cat).queryExecution.optimizedPlan
    assert(plan.collect { case a: Aggregate => a }.size == 1, plan)
  }

  test("r2 (comparison + join): female seniors agree with DuckDB") {
    val cat = Datasets.license(spark, 500)
    val df  = DatalogEval.answers(Queries.r2, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT l.l_city AS c0
        |FROM LICENSE l JOIN VALID v ON v.v_id = l.l_id
        |WHERE l.l_gender = 'f' AND CAST(l.l_byear AS BIGINT) < 1953""".stripMargin,
      "LICENSE" -> cat.relation("LICENSE"), "VALID" -> cat.relation("VALID"))
  }

  test("r5 (constant in atom + negation) agrees with DuckDB") {
    val cat = Datasets.crimes(spark, 400)
    val df  = DatalogEval.answers(Queries.r5, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT c.cr_type AS c0
        |FROM CRIMES c
        |WHERE c.cr_community = 'austin'
        |  AND NOT EXISTS (SELECT 1 FROM ARREST a WHERE a.a_id = c.cr_id)""".stripMargin,
      "CRIMES" -> cat.relation("CRIMES"), "ARREST" -> cat.relation("ARREST"))
  }

  test("r6 agrees with DuckDB") {
    val cat = Datasets.crimes(spark, 400)
    val df  = DatalogEval.answers(Queries.r6, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT c.cr_type AS c0
        |FROM CRIMES c
        |WHERE CAST(c.cr_year AS BIGINT) > 2012
        |  AND NOT EXISTS (SELECT 1 FROM ARREST a WHERE a.a_id = c.cr_id)""".stripMargin,
      "CRIMES" -> cat.relation("CRIMES"), "ARREST" -> cat.relation("ARREST"))
  }

  test("r7 (3-way join, constant atom, comparison) agrees with DuckDB") {
    val cat = Datasets.movielens(spark, 200)
    val df  = DatalogEval.answers(Queries.r7, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT m.m_title AS c0
        |FROM MOVIES m
        |JOIN GENRES g ON g.g_movie = m.m_id AND g.g_genre = 'comedy'
        |JOIN RATES r ON r.r_movie = m.m_id
        |WHERE CAST(r.r_rating AS BIGINT) > 4""".stripMargin,
      "MOVIES" -> cat.relation("MOVIES"), "GENRES" -> cat.relation("GENRES"),
      "RATES" -> cat.relation("RATES"))
  }

  test("r8 (constant inside join atom) agrees with DuckDB") {
    val cat = Datasets.movielens(spark, 200)
    val df  = DatalogEval.answers(Queries.r8, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT m.m_title AS c0
        |FROM MOVIES m
        |JOIN GENRES g ON g.g_movie = m.m_id AND g.g_genre = 'action'
        |JOIN RATES r ON r.r_movie = m.m_id AND CAST(r.r_rating AS BIGINT) = 5""".stripMargin,
      "MOVIES" -> cat.relation("MOVIES"), "GENRES" -> cat.relation("GENRES"),
      "RATES" -> cat.relation("RATES"))
  }

  test("r3 (5 atoms + negation + two comparisons) agrees with DuckDB") {
    val cat = Datasets.movies(spark, 150)
    val df  = DatalogEval.answers(Queries.r3, cat)
      .select(col("c0"), col("c1"), col("c2"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT m.m_title AS c0, g.g_genre AS c1, co.co_name AS c2
        |FROM MOVIES m
        |JOIN GENRES g ON g.g_movie = m.m_id
        |JOIN PRODCOMPANY pc ON pc.pc_movie = m.m_id
        |JOIN COMPANY co ON co.co_id = pc.pc_company
        |JOIN RATINGS r ON r.r_movie = m.m_id
        |WHERE CAST(m.m_runtime AS BIGINT) < 100 AND CAST(r.r_rating AS BIGINT) >= 4
        |  AND NOT EXISTS (SELECT 1 FROM GENRES g2
        |                  WHERE g2.g_movie = m.m_id AND g2.g_genre = 'thriller')""".stripMargin,
      "MOVIES" -> cat.relation("MOVIES"), "GENRES" -> cat.relation("GENRES"),
      "PRODCOMPANY" -> cat.relation("PRODCOMPANY"), "COMPANY" -> cat.relation("COMPANY"),
      "RATINGS" -> cat.relation("RATINGS"))
  }

  test("r4 (union of three rules) agrees with DuckDB") {
    val cat = Datasets.movies(spark, 150)
    val df  = DatalogEval.answers(Queries.r4, cat).select(col("c0"))
    val one = (genre: String, kw: Option[String]) =>
      s"""SELECT DISTINCT c.c_actor AS c0
         |FROM MOVIES m
         |JOIN CASTS c ON c.c_movie = m.m_id
         |JOIN GENRES g ON g.g_movie = m.m_id AND g.g_genre = '$genre'
         |${kw.map(k => s"JOIN KEYWORDS kw ON kw.k_movie = m.m_id AND kw.k_keyword = '$k'").getOrElse("")}
         |JOIN RATINGS r ON r.r_movie = m.m_id
         |WHERE CAST(m.m_year AS BIGINT) > 1999 AND CAST(r.r_rating AS BIGINT) >= 4""".stripMargin
    Oracle.assertEquivalent(df,
      s"${one("romance", None)} UNION ${one("comedy", Some("love"))} UNION ${one("drama", Some("relationship"))}",
      "MOVIES" -> cat.relation("MOVIES"), "CASTS" -> cat.relation("CASTS"),
      "GENRES" -> cat.relation("GENRES"), "KEYWORDS" -> cat.relation("KEYWORDS"),
      "RATINGS" -> cat.relation("RATINGS"))
  }

  test("r9 (self-join chain of length 3) agrees with DuckDB") {
    val cat = Datasets.dblp(spark, 120)
    val df  = DatalogEval.answers(Queries.hops(3), cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT d1.d_src AS c0
        |FROM DBLP d1 JOIN DBLP d2 ON d1.d_dst = d2.d_src
        |JOIN DBLP d3 ON d2.d_dst = d3.d_src""".stripMargin,
      "DBLP" -> cat.relation("DBLP"))
  }

  test("r11 agrees with DuckDB") {
    val cat = Datasets.movies(spark, 150)
    val df  = DatalogEval.answers(Queries.r11, cat).select(col("c0"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT w.w_name AS c0
        |FROM MOVIES m
        |JOIN CREWS w ON w.w_movie = m.m_id AND w.w_job = 'director'
        |JOIN GENRES g ON g.g_movie = m.m_id
        |WHERE CAST(m.m_budget AS BIGINT) > 20000000""".stripMargin,
      "MOVIES" -> cat.relation("MOVIES"), "CREWS" -> cat.relation("CREWS"),
      "GENRES" -> cat.relation("GENRES"))
  }

  test("r12 agrees with DuckDB") {
    val cat = Datasets.movies(spark, 150)
    val df  = DatalogEval.answers(Queries.r12, cat)
      .select(col("c0"), col("c1"), col("c2"))
    Oracle.assertEquivalent(df,
      """SELECT DISTINCT m.m_title AS c0, kw.k_keyword AS c1, g.g_genre AS c2
        |FROM MOVIES m
        |JOIN CASTS c ON c.c_movie = m.m_id AND c.c_actor = 'tom cruise'
        |JOIN KEYWORDS kw ON kw.k_movie = m.m_id
        |JOIN GENRES g ON g.g_movie = m.m_id
        |JOIN RATINGS r ON r.r_movie = m.m_id
        |WHERE CAST(r.r_rating AS BIGINT) >= 4""".stripMargin,
      "MOVIES" -> cat.relation("MOVIES"), "CASTS" -> cat.relation("CASTS"),
      "KEYWORDS" -> cat.relation("KEYWORDS"), "GENRES" -> cat.relation("GENRES"),
      "RATINGS" -> cat.relation("RATINGS"))
  }

  test("airbnb rule returns the Fig 1 output") {
    val cat = Datasets.airbnb(spark)
    val got = DatalogEval.answers(Queries.airbnb, cat)
      .collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(got == Set(("cozy homebase", "private"), ("modern view", "entire")))
  }

  test("restrictedAnswers filters by the p-tuple constants") {
    val got = DatalogEval.restrictedAnswers(Queries.rEx, rex,
      PTuple("Qex", Vector(Var("X"), Const(4L))))
      .collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got == Set((1L, 4L)))
  }

  test("repeated variable inside one atom forces equality") {
    val rule = Program(Rule("rr", "Loops", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"), Var("X"))))))
    val got = DatalogEval.answers(rule, rex).collect().map(_.getLong(0)).toSet
    assert(got == Set(5L)) // only (5,5) is a self-loop
  }

  test("ground negated atom empties the result when the tuple exists") {
    val rule = Program(Rule("rg", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"), Var("Y"))),
        Atom("R", Vector(Const(5L), Const(5L)), negated = true))))
    assert(DatalogEval.answers(rule, rex).isEmpty)
    val rule2 = Program(Rule("rg2", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X"), Var("Y"))),
        Atom("R", Vector(Const(5L), Const(4L)), negated = true))))
    assert(DatalogEval.answers(rule2, rex).count() == 3) // distinct sources 1, 2, 5
    // Fully ground rules: Q(1,2) :- R(1,2) holds; Q(5,5) :- R(5,5), ¬R(5,5) cannot.
    val c = (n: Long) => Const(n)
    val held = Program(Rule("g1", "Q", Vector(c(1L), c(2L)), Vector(Atom("R", Vector(c(1L), c(2L))))))
    assert(DatalogEval.answers(held, rex).collect().map(r => (r.getLong(0), r.getLong(1))).toSet ==
      Set((1L, 2L)))
    val failed = Program(Rule("g2", "Q", Vector(c(5L), c(5L)), Vector(Atom("R", Vector(c(5L), c(5L))),
      Atom("R", Vector(c(5L), c(5L)), negated = true))))
    assert(DatalogEval.answers(failed, rex).isEmpty)
  }

  test("catalog validation catches arity mismatches") {
    val bad = Rule("bad", "Q", Vector(Var("X")),
      Vector(Atom("R", Vector(Var("X")))))
    assertThrows[IllegalArgumentException](DatalogEval.answers(bad, rex))
  }

  test("unsafe rules are rejected at evaluation time") {
    val unsafe = Rule("u", "Q", Vector(Var("X"), Var("W")),
      Vector(Atom("R", Vector(Var("X"), Var("Z")))))
    assertThrows[IllegalArgumentException](DatalogEval.bindings(unsafe, rex))
  }
}
