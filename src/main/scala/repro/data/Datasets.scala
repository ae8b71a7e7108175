package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.datalog.Catalog

/** Synthetic stand-ins for the paper's evaluation datasets (§9), at
  * laptop scale. Every generator is deterministic in its row count (hash
  * expressions over `spark.range` ids — no `rand`, so results are stable
  * across partitionings) and bakes in the structural guarantees the Fig. 5
  * provenance questions rely on:
  *
  *  - why questions have at least one existing answer (witness rows);
  *  - fully-ground why-not questions are certifiably missing (e.g. every
  *    `swanton` license is valid; `tom ford` is cast only in pre-2000
  *    movies; `ritualism` crimes all predate 2013), while the question's
  *    constants still appear in the active domain.
  *
  * Numeric columns are LongType and categorical columns StringType
  * throughout, so witness-row unions and the DuckDB oracle stay simple;
  * only TPC-H-lite keeps TPC-H's decimals, line numbers and dates as
  * double, int and date columns.
  */
object Datasets {

  /** Deterministic value in [0, n) from a column and seed. */
  private def hmod(c: Column, seed: Int, n: Long): Column =
    pmod(xxhash64(c, lit(seed)), lit(n))

  /** Deterministic pick from a closed value list. */
  private def pick(c: Column, seed: Int, values: Seq[String]): Column =
    element_at(array(values.map(lit): _*), (hmod(c, seed, values.size) + 1).cast("int"))

  // ---------------------------------------------------------------- license

  val LicenseCities: Seq[String] =
    Seq("albany", "buffalo", "rochester", "yonkers", "syracuse", "utica",
      "ithaca", "elmira", "rome", "troy", "auburn", "batavia", "oswego",
      "geneva", "cortland", "olean", "oneonta", "amsterdam", "kingston", "hudson")

  /** NYS driver-license stand-in: LICENSE(id, byear, gender, city, ltype,
    * lclass) + VALID(id). Guarantees: every `swanton` license is VALID (r1
    * why-not); `delaware` holders are all male (r2 why-not); witness rows
    * give `new york` an invalid class-d license (r1 why) and `brooklyn` a
    * valid female senior (r2 why).
    */
  def license(spark: SparkSession, n: Long): Catalog = {
    import spark.implicits._
    val ids = spark.range(1, n + 1)
    val id  = col("id")
    val city = when(id % 100 === 99, "swanton")
      .when(id % 100 === 98, "delaware")
      .when(id % 100 === 1, "brooklyn")
      .when(hmod(id, 11, 10) < 3, "new york")
      .otherwise(pick(id, 12, LicenseCities))
    val base = ids.select(
      id.as("l_id"),
      (lit(1920L) + id % 80).as("l_byear"),
      when(city === "delaware", "m").otherwise(pick(id, 13, Seq("f", "m", "x"))).as("l_gender"),
      city.as("l_city"),
      pick(id, 14, Seq("permit", "license", "nondriver")).as("l_type"),
      pick(id, 15, Seq("a", "b", "c", "d")).as("l_class"),
    )
    val witnesses = Seq(
      (n + 1, 1940L, "f", "brooklyn", "license", "d"), // r2 why: valid female senior
      (n + 2, 1980L, "m", "new york", "license", "d"), // r1 why: invalid class-d (not in VALID)
    ).toDF("l_id", "l_byear", "l_gender", "l_city", "l_type", "l_class")
    val license = base.unionByName(witnesses)
    val valid = ids
      .where(id % 5 =!= 0 || id % 100 === 99) // all swanton ids valid
      .select(id.as("v_id"))
      .unionByName(Seq(n + 1).toDF("v_id"))
    Catalog("LICENSE" -> license, "VALID" -> valid)
  }

  // ----------------------------------------------------------------- movies

  val Genres: Seq[String] =
    Seq("romance", "comedy", "drama", "thriller", "action", "family",
      "horror", "scifi", "documentary", "animation")
  val Keywords: Seq[String] =
    Seq("love", "relationship", "war", "space", "murder", "mission",
      "spying", "friendship", "betrayal", "future")

  private def movieYear(mid: Column): Column   = lit(1980L) + mid % 45
  private def movieBudget(mid: Column): Column = hmod(mid, 23, 40) * 1000000L

  /** Kaggle-movies stand-in (r3, r4, r11, r12): MOVIES(7), GENRES(2),
    * KEYWORDS(2), PRODCOMPANY(2), COMPANY(2), RATINGS(4), CASTS(5),
    * CREWS(5). `n` = #movies; child tables scale with it.
    * Guarantees: `tom ford` acts only in pre-2000 movies (r4 why-not);
    * `robert altman` directs only ≤$20M movies (r11 why-not); witness
    * movies for jack black / spielberg / tom cruise / drama (why questions).
    */
  def movies(spark: SparkSession, n: Long): Catalog = {
    import spark.implicits._
    val ids = spark.range(1, n + 1)
    val id  = col("id")
    val nCompanies = math.max(1L, n / 50)

    val moviesBase = ids.select(
      id.as("m_id"),
      concat(lit("movie"), id).as("m_title"),
      movieYear(id).as("m_year"),
      (lit(60L) + hmod(id, 21, 120)).as("m_runtime"),
      hmod(id, 22, 100).as("m_popularity"),
      movieBudget(id).as("m_budget"),
      hmod(id, 24, 10000).as("m_votes"),
    )
    val movieW = Seq(
      (n + 1, "school of rock", 2003L, 108L, 50L, 35000000L, 5000L),   // r4 why: jack black
      (n + 2, "jurassic park", 1993L, 127L, 80L, 63000000L, 9000L),    // r11 why: spielberg, B>2e7
      (n + 3, "mission impossible", 1996L, 110L, 70L, 80000000L, 8000L), // r12 why: tom cruise
      (n + 4, "short drama", 2010L, 90L, 30L, 10000000L, 1000L),       // r3 why: runtime<100, drama
    ).toDF("m_id", "m_title", "m_year", "m_runtime", "m_popularity", "m_budget", "m_votes")

    val genresBase = spark.range(0, 2 * n).select(
      (col("id") % n + 1).as("g_movie"),
      pick(col("id"), 31, Genres).as("g_genre"),
    ).distinct()
    val genreW = Seq(
      (n + 1, "romance"), (n + 1, "comedy"), (n + 2, "scifi"),
      (n + 3, "action"), (n + 4, "drama"),
    ).toDF("g_movie", "g_genre")

    val keywordsBase = spark.range(0, 2 * n).select(
      (col("id") % n + 1).as("k_movie"),
      pick(col("id"), 33, Keywords).as("k_keyword"),
    ).distinct()
    val keywordW = Seq((n + 1, "love"), (n + 3, "mission"))
      .toDF("k_movie", "k_keyword")

    val prodBase = ids.select(
      id.as("pc_movie"), (id % nCompanies + 1).as("pc_company"))
    val prodW = Seq((n + 1, 1L), (n + 2, 1L), (n + 3, 2L), (n + 4, 2L))
      .toDF("pc_movie", "pc_company")

    val company = spark.range(1, nCompanies + 1).select(
      col("id").as("co_id"), concat(lit("studio"), col("id")).as("co_name"))

    val ratingsBase = spark.range(0, 3 * n).select(
      (hmod(col("id"), 41, math.max(1L, n)) + 1).as("r_user"),
      (col("id") % n + 1).as("r_movie"),
      (hmod(col("id"), 42, 5) + 1).as("r_rating"),
      (lit(1000000000L) + col("id")).as("r_ts"),
    )
    val ratingW = Seq(
      (9001L, n + 1, 5L, 1100000001L), (9002L, n + 3, 5L, 1100000002L),
      (9003L, n + 4, 4L, 1100000003L),
    ).toDF("r_user", "r_movie", "r_rating", "r_ts")

    val nActors = math.max(4L, n / 10)
    val castsBase = spark.range(0, 3 * n).select(
      (col("id") % n + 1).as("c_movie"),
      col("id").as("c_castid"),
      concat(lit("role"), hmod(col("id"), 53, 500)).as("c_character"),
      // tom ford appears ONLY in pre-2000 movies → Players(tom ford) missing.
      when(movieYear(col("id") % n + 1) <= 1999 && hmod(col("id"), 51, 40) === 0, "tom ford")
        .otherwise(concat(lit("actor"), hmod(col("id"), 54, nActors))).as("c_actor"),
      pick(col("id"), 55, Seq("m", "f")).as("c_gender"),
    )
    val castW = Seq(
      (n + 1, 900001L, "dewey", "jack black", "m"),
      (n + 3, 900002L, "ethan", "tom cruise", "m"),
    ).toDF("c_movie", "c_castid", "c_character", "c_actor", "c_gender")

    val nCrew = math.max(4L, n / 10)
    val crewsBase = spark.range(0, 2 * n).select(
      (col("id") % n + 1).as("w_movie"),
      col("id").as("w_crewid"),
      // robert altman directs ONLY ≤$20M movies → DirGen(robert altman) missing.
      when(hmod(col("id"), 56, 5) === 0 && movieBudget(col("id") % n + 1) <= 20000000L
        && hmod(col("id"), 52, 30) === 0, "robert altman")
        .otherwise(concat(lit("crew"), hmod(col("id"), 57, nCrew))).as("w_name"),
      when(hmod(col("id"), 56, 5) === 0, "director")
        .otherwise(pick(col("id"), 58, Seq("producer", "writer", "editor", "camera"))).as("w_job"),
      pick(col("id"), 59, Seq("directing", "production", "writing", "editing")).as("w_dept"),
    )
    val crewW = Seq((n + 2, 900003L, "steven spielberg", "director", "directing"))
      .toDF("w_movie", "w_crewid", "w_name", "w_job", "w_dept")

    Catalog(
      "MOVIES"      -> moviesBase.unionByName(movieW),
      "GENRES"      -> genresBase.unionByName(genreW).distinct(),
      "KEYWORDS"    -> keywordsBase.unionByName(keywordW).distinct(),
      "PRODCOMPANY" -> prodBase.unionByName(prodW),
      "COMPANY"     -> company,
      "RATINGS"     -> ratingsBase.unionByName(ratingW),
      "CASTS"       -> castsBase.unionByName(castW),
      "CREWS"       -> crewsBase.unionByName(crewW),
    )
  }

  // -------------------------------------------------------------- movielens

  /** MovieLens-style stand-in for r7/r8: MOVIES(3), GENRES(2), RATES(5).
    * Guarantees: `forrest gump` is a comedy rated 5 (r7 why); `fight club`
    * is action rated exactly 5 (r8 why); `babysitting` is horror-only (r7
    * why-not) and `avalanche` drama-only (r8 why-not) — both in the title
    * domain, neither derivable.
    */
  def movielens(spark: SparkSession, n: Long): Catalog = {
    require(n >= 5, s"movielens needs n >= 5, got $n")
    val ids = spark.range(1, n + 1)
    val id  = col("id")
    val title = when(id === 1, "forrest gump").when(id === 2, "babysitting")
      .when(id === 3, "fight club").when(id === 4, "avalanche")
      .otherwise(concat(lit("film"), id))
    val movies = ids.select(
      id.as("m_id"), title.as("m_title"), (lit(1970L) + id % 50).as("m_year"))
    val genre = when(id === 1, "comedy").when(id === 2, "horror")
      .when(id === 3, "action").when(id === 4, "drama")
      .otherwise(pick(id, 61, Genres))
    val genres = ids.select(id.as("g_movie"), genre.as("g_genre"))
    val rates = spark.range(0, 3 * n).select(
      (hmod(col("id"), 62, math.max(1L, n)) + 1).as("r_user"),
      (col("id") % n + 1).as("r_movie"),
      when(col("id") % n + 1 === 1, 5L).when(col("id") % n + 1 === 3, 5L)
        .when(col("id") % n + 1 === 2, 2L).when(col("id") % n + 1 === 4, 3L)
        .otherwise(hmod(col("id"), 63, 5) + 1).as("r_rating"),
      (lit(900000000L) + col("id")).as("r_ts"),
      pick(col("id"), 64, Seq("web", "mobile", "tv")).as("r_device"),
    )
    Catalog("MOVIES" -> movies, "GENRES" -> genres, "RATES" -> rates)
  }

  // ----------------------------------------------------------------- crimes

  /** Chicago-crimes stand-in (r5, r6): CRIMES(id, year, type, location,
    * community) + ARREST(id). Guarantees: `domestic violence` never occurs
    * in `austin` (r5 why-not); `ritualism` crimes all predate 2013 (r6
    * why-not); witness rows give unarrested `battery` in austin (r5 why)
    * and unarrested `theft` after 2012 (r6 why).
    */
  def crimes(spark: SparkSession, n: Long): Catalog = {
    import spark.implicits._
    val ids = spark.range(1, n + 1)
    val id  = col("id")
    val ctype = when(id % 50 === 0, "domestic violence")
      .when(id % 50 === 1, "ritualism")
      .otherwise(pick(id, 71, Seq("battery", "theft", "assault", "robbery",
        "narcotics", "burglary", "fraud", "arson")))
    val base = ids.select(
      id.as("cr_id"),
      when(ctype === "ritualism", lit(2005L) + id % 8)
        .otherwise(lit(2001L) + id % 24).as("cr_year"),
      ctype.as("cr_type"),
      pick(id, 73, Seq("street", "apartment", "sidewalk", "residence", "alley", "park"))
        .as("cr_location"),
      when(ctype === "domestic violence", "chicago lawn")
        .otherwise(pick(id, 72, Seq("austin", "loop", "hyde park", "englewood",
          "uptown", "pilsen"))).as("cr_community"),
    )
    val witnesses = Seq(
      (n + 1, 2015L, "battery", "street", "austin"), // r5 why (not in ARREST)
      (n + 2, 2016L, "theft", "alley", "loop"),      // r6 why (not in ARREST)
    ).toDF("cr_id", "cr_year", "cr_type", "cr_location", "cr_community")
    val arrest = ids.where(id % 3 === 0).select(id.as("a_id"))
    Catalog("CRIMES" -> base.unionByName(witnesses), "ARREST" -> arrest)
  }

  // ------------------------------------------------------------------- dblp

  /** DBLP co-author-graph stand-in (r9): DBLP(src, dst) over ~n/5 authors.
    * `xueni pan` appears only as a co-author target, never as a source, so
    * Hops(xueni pan) is missing while the name stays in the active domain.
    */
  def dblp(spark: SparkSession, nEdges: Long): Catalog = {
    import spark.implicits._
    val nAuthors = math.max(4L, nEdges / 5)
    val base = spark.range(0, nEdges).select(
      concat(lit("author"), hmod(col("id"), 81, nAuthors)).as("d_src"),
      concat(lit("author"), hmod(col("id"), 82, nAuthors)).as("d_dst"),
    ).distinct()
    val special = Seq(("author0", "xueni pan")).toDF("d_src", "d_dst")
    Catalog("DBLP" -> base.unionByName(special).distinct())
  }

  // ------------------------------------------------------------------ tpc-h

  /** TPC-H-lite (r10): CUSTOMER(5), ORDERS(5), LINEITEM(10), with 150K
    * customers, 1.5M orders and 6M line items per unit of `sf`, and a
    * customer-name column (the paper's r10 projects C_NAME). See DESIGN.md:
    * the full-TPC-H 8/9/16-column schema is narrowed to the lite schema.
    */
  def tpch(spark: SparkSession, sf: Double): Catalog = {
    def rows(perSf: Long): Long = math.max(1L, (perSf * sf).toLong)
    val (nCust, nOrders, nLines) = (rows(150000L), rows(1500000L), rows(6000000L))
    val id = col("id")
    def key(seed: Int, n: Long): Column = hmod(id, seed, n) + 1
    def cents(seed: Int, from: Long, span: Long): Column =
      round(lit(from.toDouble) + hmod(id, seed, span * 100) / 100.0, 2)
    def day(seed: Int, span: Long): Column =
      date_add(lit("1992-01-01").cast("date"), hmod(id, seed, span).cast("int"))
    val customer = spark.range(1, nCust + 1).select(
      id.as("c_custkey"),
      concat(lit("customer"), id).as("c_name"),
      hmod(id, 701, 25).as("c_nationkey"),
      cents(702, -1000L, 10000L).as("c_acctbal"),
      pick(id, 703, Seq("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"))
        .as("c_mktsegment"),
    )
    val orders = spark.range(1, nOrders + 1).select(
      id.as("o_orderkey"),
      key(711, nCust).as("o_custkey"),
      pick(id, 712, Seq("O", "F", "P")).as("o_orderstatus"),
      cents(713, 1000L, 500000L).as("o_totalprice"),
      day(714, 2406).as("o_orderdate"),
    )
    val lineitem = spark.range(0, nLines).select(
      key(721, nOrders).as("l_orderkey"),
      key(722, rows(200000L)).as("l_partkey"),
      key(723, 7).cast("int").as("l_linenumber"),
      key(724, 50).cast("double").as("l_quantity"),
      cents(725, 900L, 90000L).as("l_extendedprice"),
      (hmod(id, 726, 11) / 100.0).as("l_discount"),
      (hmod(id, 727, 9) / 100.0).as("l_tax"),
      pick(id, 728, Seq("N", "R", "A")).as("l_returnflag"),
      pick(id, 729, Seq("O", "F")).as("l_linestatus"),
      day(730, 2557).as("l_shipdate"),
    )
    Catalog("CUSTOMER" -> customer, "ORDERS" -> orders, "LINEITEM" -> lineitem)
  }

  // --------------------------------------------------- Artemis crime/witness

  /** Crime-witness dataset for the Artemis comparison (Fig 12a):
    * CRIME(type, scene), WITNESS(name, scene), SAWPERSON(name, hair, cloth),
    * PERSON(pname, hair, cloth). `Aarongolden` never reports lavender hair,
    * so the paper's ground why-not question is certifiably missing.
    */
  def crimeWitness(spark: SparkSession, n: Long): Catalog = {
    val ids = spark.range(1, n + 1)
    val id  = col("id")
    // Scene ids scale with the instance (real crime data has ~one scene per
    // few incidents) — this is what makes the all-derivations baseline's
    // space grow quadratically with n (scenes × persons), per Fig 12a.
    val scenes = math.max(120L, n / 7)
    val crime = ids.select(
      pick(id, 91, Seq("trespassing", "theft", "vandalism", "fraud")).as("cw_type"),
      (id % scenes + 1).as("cw_scene"))
    val wname = when(id % 37 === 0, "Aarongolden")
      .otherwise(concat(lit("witness"), hmod(id, 92, math.max(4L, n / 10))))
    val witness = ids.select(wname.as("wt_name"), (hmod(id, 93, scenes) + 1).as("wt_scene"))
    val hairs  = Seq("lavender", "black", "brown", "blond", "red")
    val cloths = Seq("MidnightBlue", "Crimson", "ForestGreen", "Ivory", "Charcoal")
    val saw = ids.select(
      wname.as("sp_name"),
      when(wname === "Aarongolden", "black").otherwise(pick(id, 94, hairs)).as("sp_hair"),
      pick(id, 95, cloths).as("sp_cloth"))
    val person = ids.select(
      concat(lit("person"), hmod(id, 96, math.max(4L, n / 5))).as("p_name"),
      pick(id, 97, hairs).as("p_hair"),
      pick(id, 98, cloths).as("p_cloth"))
    Catalog("CRIME" -> crime, "WITNESS" -> witness.distinct(),
      "SAWPERSON" -> saw.distinct(), "PERSON" -> person.distinct())
  }

  // ----------------------------------------------------------------- airbnb

  /** The S-Airbnb toy instance of Fig. 1, verbatim: 6 listings, 4
    * availability rows — the paper's 2160-derivation ground truth.
    */
  def airbnb(spark: SparkSession): Catalog = {
    import spark.implicits._
    val listing = Seq(
      (8403L, "central place", "apt", "shared", "queen anne", "east"),
      (9211L, "plum", "apt", "entire", "ballard", "adams"),
      (2445L, "cozy homebase", "house", "private", "queen anne", "west"),
      (8575L, "near spaceneedle", "apt", "shared", "queen anne", "lower"),
      (4947L, "seattle couch", "condo", "shared", "downtown", "first hill"),
      (2332L, "modern view", "house", "entire", "queen anne", "west"),
    ).toDF("li_id", "li_name", "li_ptype", "li_rtype", "li_ngroup", "li_neighbor")
    val avail = Seq(
      (9211L, "2016-11-09", 130L),
      (2445L, "2016-11-09", 45L),
      (2332L, "2016-11-09", 350L),
      (4947L, "2016-11-10", 40L),
    ).toDF("av_id", "av_date", "av_price")
    Catalog("LISTING" -> listing, "AVAIL" -> avail)
  }

  // --------------------------------------------- Fig 3 running example

  /** The graph instance R of Fig. 3 (paths of length 2). */
  def runningExample(spark: SparkSession): Catalog = {
    import spark.implicits._
    val r = Seq((1L, 2L), (2L, 3L), (2L, 4L), (5L, 3L), (5L, 5L), (5L, 6L))
      .toDF("r_a", "r_b")
    Catalog("R" -> r)
  }

  // ------------------------------------------- synthetic star/chain (Fig 9)

  /** Chain-join relations C1..Cj: Ci(key_i, key_{i+1}, p1..pExtra). */
  def chainRelations(spark: SparkSession, joins: Int, rows: Long, nKeys: Long,
                     extraCols: Int): Catalog = {
    val rels = (1 to joins).map { i =>
      val id = col("id")
      val cols = Seq(
        (hmod(id, 100 + i, nKeys) + 1).as("a"),
        (hmod(id, 200 + i, nKeys) + 1).as("b"),
      ) ++ (1 to extraCols).map(e => hmod(id, 300 + 31 * i + e, 20).as(s"p$e"))
      s"C$i" -> spark.range(0, rows).select(cols: _*).distinct()
    }
    new Catalog(rels.toMap)
  }

  /** Star-join relations: fact F(k1..kj, payload) + dimensions Di(key, p1..pExtra). */
  def starRelations(spark: SparkSession, dims: Int, rows: Long, nKeys: Long,
                    extraCols: Int): Catalog = {
    val id = col("id")
    val factCols = (1 to dims).map(i => (hmod(id, 400 + i, nKeys) + 1).as(s"k$i")) :+
      hmod(id, 499, 50).as("fp")
    val fact = spark.range(0, rows).select(factCols: _*).distinct()
    val dimRels = (1 to dims).map { i =>
      val cols = Seq((hmod(id, 500 + i, nKeys) + 1).as("k")) ++
        (1 to extraCols).map(e => hmod(id, 600 + 31 * i + e, 20).as(s"p$e"))
      s"D$i" -> spark.range(0, math.max(2L, rows / 10)).select(cols: _*).distinct()
    }
    new Catalog((dimRels :+ ("F" -> fact)).toMap)
  }
}
