package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.datalog.DatalogEval

/** The synthetic datasets must (a) match the schemas the Fig 4 queries
  * expect, (b) guarantee existence for every why question of Fig 5, and
  * (c) guarantee absence for every ground why-not question — while keeping
  * the question's constants inside the active domain.
  */
class DatasetsSpec extends SparkSpec {

  private lazy val lic = Datasets.license(spark, 500)
  private lazy val mov = Datasets.movies(spark, 120)
  private lazy val ml  = Datasets.movielens(spark, 150)
  private lazy val cri = Datasets.crimes(spark, 400)
  private lazy val db  = Datasets.dblp(spark, 200)

  private def answers(p: repro.datalog.Program, cat: repro.datalog.Catalog) =
    DatalogEval.answers(p, cat)

  test("license: schema and witness structure") {
    assert(lic.columns("LICENSE") ==
      Seq("l_id", "l_byear", "l_gender", "l_city", "l_type", "l_class"))
    assert(lic.arity("VALID") == 1)
    // swanton exists in the city domain but all swanton licenses are valid.
    val l = lic.relation("LICENSE")
    assert(l.where(col("l_city") === "swanton").count() > 0)
    val v = lic.relation("VALID")
    val swantonIds = l.where(col("l_city") === "swanton").select("l_id")
    assert(swantonIds.join(v, swantonIds("l_id") === v("v_id"), "left_anti").isEmpty)
    // delaware is present and all-male.
    val delaware = l.where(col("l_city") === "delaware")
    assert(delaware.count() > 0)
    assert(delaware.where(col("l_gender") =!= "m").isEmpty)
  }

  test("license: why answers exist, ground why-nots are missing") {
    val inv = answers(Queries.r1, lic).collect().map(_.getString(0)).toSet
    assert(inv.contains("new york"))
    assert(!inv.contains("swanton"))
    val fs = answers(Queries.r2, lic).collect().map(_.getString(0)).toSet
    assert(fs.contains("brooklyn"))
    assert(!fs.contains("delaware"))
  }

  test("license generation is deterministic") {
    val a = Datasets.license(spark, 100).relation("LICENSE").collect().map(_.toSeq).toSet
    val b = Datasets.license(spark, 100).relation("LICENSE").collect().map(_.toSeq).toSet
    assert(a == b)
  }

  test("no generator draws a non-deterministic value") {
    // Hash expressions over `range` ids give the same rows on any number of
    // cores and partitions; `rand` is seeded per partition and would not.
    val generated = Seq(
      lic -> Seq("LICENSE", "VALID"),
      mov -> Seq("MOVIES", "GENRES", "KEYWORDS", "PRODCOMPANY", "COMPANY", "RATINGS", "CASTS", "CREWS"),
      ml  -> Seq("MOVIES", "GENRES", "RATES"),
      cri -> Seq("CRIMES", "ARREST"),
      db  -> Seq("DBLP"),
      Datasets.tpch(spark, 0.001)          -> Seq("CUSTOMER", "ORDERS", "LINEITEM"),
      Datasets.crimeWitness(spark, 50)     -> Seq("CRIME", "WITNESS", "SAWPERSON", "PERSON"),
      Datasets.airbnb(spark)               -> Seq("LISTING", "AVAIL"),
      Datasets.runningExample(spark)       -> Seq("R"),
      Datasets.chainRelations(spark, 2, 10, 5, 1) -> Seq("C1", "C2"),
      Datasets.starRelations(spark, 2, 10, 5, 1)  -> Seq("F", "D1", "D2"))
    for ((cat, names) <- generated; name <- names) {
      val plan = cat.relation(name).queryExecution.analyzed
      assert(!plan.exists(_.expressions.exists(!_.deterministic)), name)
    }
  }

  test("movies: schemas match the Fig 4 atom arities") {
    assert(mov.arity("MOVIES") == 7)
    assert(mov.arity("GENRES") == 2)
    assert(mov.arity("KEYWORDS") == 2)
    assert(mov.arity("PRODCOMPANY") == 2)
    assert(mov.arity("COMPANY") == 2)
    assert(mov.arity("RATINGS") == 4)
    assert(mov.arity("CASTS") == 5)
    assert(mov.arity("CREWS") == 5)
  }

  test("movies: r4 why/why-not structure (jack black vs tom ford)") {
    val players = answers(Queries.r4, mov).collect().map(_.getString(0)).toSet
    assert(players.contains("jack black"))
    assert(!players.contains("tom ford"))
    // tom ford is in the actor domain though.
    assert(mov.relation("CASTS").where(col("c_actor") === "tom ford").count() > 0)
    // ...but only in pre-2000 movies.
    val tf = mov.relation("CASTS").where(col("c_actor") === "tom ford")
      .join(mov.relation("MOVIES"), col("c_movie") === col("m_id"))
    assert(tf.where(col("m_year") > 1999).isEmpty)
  }

  test("movies: r11 why/why-not structure (spielberg vs altman)") {
    val dirs = answers(Queries.r11, mov).collect().map(_.getString(0)).toSet
    assert(dirs.contains("steven spielberg"))
    assert(!dirs.contains("robert altman"))
    assert(mov.relation("CREWS").where(col("w_name") === "robert altman").count() > 0)
  }

  test("movies: r12 why has an answer with keyword mission") {
    val got = answers(Queries.r12, mov)
      .where(col("c1") === "mission").count()
    assert(got > 0)
  }

  test("movies: r3 why has a drama answer") {
    val got = answers(Queries.r3, mov).where(col("c1") === "drama").count()
    assert(got > 0)
  }

  test("movielens: r7/r8 witness movies behave per Fig 5") {
    val fav = answers(Queries.r7, ml).collect().map(_.getString(0)).toSet
    assert(fav.contains("forrest gump"))
    assert(!fav.contains("babysitting"))
    val act = answers(Queries.r8, ml).collect().map(_.getString(0)).toSet
    assert(act.contains("fight club"))
    assert(!act.contains("avalanche"))
    // Both why-not titles are in the domain.
    val titles = ml.relation("MOVIES").select("m_title").collect().map(_.getString(0)).toSet
    assert(titles.contains("babysitting") && titles.contains("avalanche"))
  }

  test("crimes: r5/r6 structure") {
    val comm = answers(Queries.r5, cri).collect().map(_.getString(0)).toSet
    assert(comm.contains("battery"))
    assert(!comm.contains("domestic violence"))
    val since = answers(Queries.r6, cri).collect().map(_.getString(0)).toSet
    assert(since.contains("theft"))
    assert(!since.contains("ritualism"))
    // Both why-not types occur in the data.
    val types = cri.relation("CRIMES").select("cr_type").distinct()
      .collect().map(_.getString(0)).toSet
    assert(types.contains("domestic violence") && types.contains("ritualism"))
  }

  test("dblp: xueni pan is a sink (never a source)") {
    val d = db.relation("DBLP")
    assert(d.where(col("d_dst") === "xueni pan").count() > 0)
    assert(d.where(col("d_src") === "xueni pan").isEmpty)
    val hops = answers(Queries.hops(2), db).collect().map(_.getString(0)).toSet
    assert(!hops.contains("xueni pan"))
  }

  test("tpch: r10 schema alignment and nonempty answers") {
    val cat = Datasets.tpch(spark, 0.002)
    assert(cat.arity("CUSTOMER") == 5)
    assert(cat.arity("ORDERS") == 5)
    assert(cat.arity("LINEITEM") == 10)
    assert(answers(Queries.r10, cat).count() > 0)
  }

  test("tpch: custs(bindExtra) pins existential variables progressively") {
    val free0 = Queries.custs(0).rules.head.variables.size
    val free5 = Queries.custs(5).rules.head.variables.size
    assert(free0 - free5 == 5)
    assertThrows[IllegalArgumentException](Queries.custs(99))
  }

  test("crimeWitness: the Artemis question is certifiably missing") {
    val cat = Datasets.crimeWitness(spark, 300)
    val ans = DatalogEval.restrictedAnswers(Queries.crimeDesc, cat,
      Queries.whynotCrimeDesc.tuple)
    assert(ans.isEmpty)
    // ...but every constant of the question is in the active domain.
    assert(cat.relation("CRIME").where(col("cw_type") === "trespassing").count() > 0)
    assert(cat.relation("WITNESS").where(col("wt_name") === "Aarongolden").count() > 0)
    assert(cat.relation("SAWPERSON").where(col("sp_hair") === "lavender").count() > 0)
    assert(cat.relation("SAWPERSON").where(col("sp_cloth") === "MidnightBlue").count() > 0)
  }

  test("airbnb: Fig 1 distinct-value counts") {
    val cat = Datasets.airbnb(spark)
    val li  = cat.relation("LISTING")
    def distinctCount(c: String) = li.select(c).distinct().count()
    assert(distinctCount("li_id") == 6)
    assert(distinctCount("li_name") == 6)
    assert(distinctCount("li_ptype") == 3)
    assert(distinctCount("li_rtype") == 3)
    assert(distinctCount("li_ngroup") == 3)
    assert(distinctCount("li_neighbor") == 5)
    val av = cat.relation("AVAIL")
    assert(av.select("av_date").distinct().count() == 2)
    assert(av.select("av_price").distinct().count() == 4)
  }

  test("chain/star relations match the synthetic query shapes") {
    val chainCat = Datasets.chainRelations(spark, 3, 500, 50, 1)
    val chainQ   = Queries.chainQuery(3, 1)
    chainQ.rules.foreach(chainCat.validate)
    assert(DatalogEval.answers(chainQ, chainCat).count() > 0)

    val starCat = Datasets.starRelations(spark, 3, 500, 20, 1)
    val starQ   = Queries.starQuery(3, 1)
    starQ.rules.foreach(starCat.validate)
    assert(DatalogEval.answers(starQ, starCat).count() > 0)
  }

  test("all Fig 4 query/catalog pairs validate") {
    Queries.r1.rules.foreach(lic.validate)
    Queries.r2.rules.foreach(lic.validate)
    Queries.r3.rules.foreach(mov.validate)
    Queries.r4.rules.foreach(mov.validate)
    Queries.r5.rules.foreach(cri.validate)
    Queries.r6.rules.foreach(cri.validate)
    Queries.r7.rules.foreach(ml.validate)
    Queries.r8.rules.foreach(ml.validate)
    Queries.r9.rules.foreach(db.validate)
    Queries.r11.rules.foreach(mov.validate)
    Queries.r12.rules.foreach(mov.validate)
    Queries.airbnb.rules.foreach(Datasets.airbnb(spark).validate)
    Queries.rEx.rules.foreach(Datasets.runningExample(spark).validate)
  }

  test("all Fig 4 rules are safe UCQ¬< rules") {
    val all = Seq(Queries.r1, Queries.r2, Queries.r3, Queries.r4, Queries.r5,
      Queries.r6, Queries.r7, Queries.r8, Queries.r9, Queries.r10, Queries.r11,
      Queries.r12, Queries.airbnb, Queries.rEx, Queries.crimeDesc)
    all.flatMap(_.rules).foreach(r => assert(r.isSafe, s"${r.name} unsafe"))
  }
}
