package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}
import repro.data.{Datasets, Queries}
import repro.datalog._
import repro.sampling.BatchSampler
import repro.summarize.{Pattern, Summarizer, TopK}
import scala.collection.mutable
import scala.io.Source

/** Every sample, candidate pool and summary of a fixed set of questions,
  * compared line by line with the golden file `sample-identity.txt`. A
  * change that should leave samples alone is checked against it unchanged;
  * one that alters samples shows up as a readable diff of that file.
  *
  * Each question is answered as [[Summarizer.summarize]] answers it, from a
  * [[BatchSampler.Config]]: [[BatchSampler.sample]], [[Summarizer.patterns]],
  * then [[TopK.summarize]] at `k = 3`. An entry holds per rule sample its
  * rule, `nOS`, `provEstimate`, `exact` and sorted rows; the sorted pool;
  * and the summary. Every run writes what it computed to
  * `target/sample-identity.txt`; after a deliberate change to samples,
  * copying that file over the golden one records it.
  */
class SampleIdentitySpec extends SparkSpec {

  private lazy val movies  = Datasets.movies(spark, 100)
  private lazy val license = Datasets.license(spark, 1000)
  /** `BatchSamplerSpec`'s settings, and its forced sampling. */
  private val cfg    = BatchSampler.Config(nS = 50, seed = 7L)
  private val forced = cfg.copy(fullEnumFactor = 0.0, nS = 20)
  private val full   = Summarizer.Config(full = true).sampler

  private val golden: Map[String, Vector[String]] = {
    val src = Source.fromResource("sample-identity.txt", getClass.getClassLoader)
    val lines = try src.getLines().toVector finally src.close()
    sections(lines)
  }
  private val actual = mutable.LinkedHashMap.empty[String, Vector[String]]

  /** The file's entries by their `== name` header. */
  private def sections(lines: Vector[String]): Map[String, Vector[String]] =
    lines.foldLeft(Vector.empty[(String, Vector[String])]) {
      case (acc, l) if l.startsWith("== ") => acc :+ (l.drop(3) -> Vector.empty)
      case (acc, l)                        => acc.init :+ (acc.last._1 -> (acc.last._2 :+ l))
    }.toMap

  private def pattern(p: Pattern): String =
    s"${p.ruleName}(${p.args.map(_.fold("_")(_.toString)).mkString(", ")})" +
      s"-(${p.goals.map(g => if (g) "T" else "F").mkString}) cp=${p.cp}"

  /** The entry of question `pq` over `program` and `catalog` at `c`. */
  private def entry(program: Program, catalog: Catalog, pq: ProvQuestion, c: BatchSampler.Config): Vector[String] = {
    val samples   = BatchSampler.sample(spark, program, catalog, pq, c)
    val (pool, _) = Summarizer.patterns(samples)
    val summary   = TopK.summarize(pool, 3, 300, 3000L)
    val scores    = s"summary scLow=${summary.scLow} scHigh=${summary.scHigh} cpLow=${summary.cpLow} " +
      s"cpHigh=${summary.cpHigh} info=${summary.info} optimal=${summary.optimal} pops=${summary.pops}"
    samples.flatMap { s =>
      s"sample ${s.rule.name} nOS=${s.nOS} provEstimate=${s.provEstimate} exact=${s.exact} rows=${s.rows.size}" +:
        s.rows.map(_.mkString("|")).sorted.map("  " + _)
    } ++ (s"pool ${pool.size}" +: pool.map(pattern).sorted.map("  " + _)) ++
      (scores +: summary.patterns.map(p => "  " + pattern(p)))
  }

  private def identical(name: String, program: => Program, catalog: => Catalog, pq: ProvQuestion,
                        c: BatchSampler.Config): Unit =
    test(s"$name: samples, pool and summary equal the golden file") {
      val got = entry(program, catalog, pq, c)
      actual(name) = got
      val want = golden.getOrElse(name, fail(s"no entry '$name' in sample-identity.txt"))
      val diff = got.zipAll(want, "<none>", "<none>").indexWhere { case (g, w) => g != w }
      assert(diff < 0, s"line ${diff + 1} of '$name': got '${got.lift(diff).getOrElse("<none>")}', " +
        s"want '${want.lift(diff).getOrElse("<none>")}'")
    }

  identical("r4 whynot, movies 100", Queries.r4, movies, Queries.whynotR4, cfg)
  identical("r4 whynot, movies 100, forced", Queries.r4, movies, Queries.whynotR4, forced)
  identical("airbnb whynot", Queries.airbnb, Datasets.airbnb(spark), Queries.whynotAirbnb, cfg)
  identical("rEx whynot", Queries.rEx, Datasets.runningExample(spark), Queries.whynotEx, cfg)
  identical("tiny-space union", SampleIdentitySpec.union, SampleIdentitySpec.rst(spark),
    ProvQuestion(PTuple("Q", Vector(Var("X"))), Whynot), cfg)
  identical("r1 why, license 1K, nS 10", Queries.r1, license, Queries.whyR1, cfg.copy(nS = 10))
  identical("r1 why, license 1K, FULL", Queries.r1, license, Queries.whyR1, full)
  identical("r4 why, movies 100", Queries.r4, movies, Queries.whyR4, cfg)

  override def afterAll(): Unit = {
    val out = Paths.get("target", "sample-identity.txt")
    Files.createDirectories(out.getParent)
    Files.write(out, actual.toVector.flatMap { case (n, ls) => s"== $n" +: ls }.mkString("", "\n", "\n").getBytes(UTF_8))
    super.afterAll()
  }
}

object SampleIdentitySpec {
  /** `BatchSamplerSpec`'s tiny-space union: Q(X) :- R(X, Y) and
    * Q(X) :- S(X), T(X), whose second rule the §5.3 estimate reads as 0.
    */
  val union: Program = {
    val x = Vector(Var("X"))
    Program(
      Rule("q1", "Q", x, Vector(Atom("R", Vector(Var("X"), Var("Y"))))),
      Rule("q2", "Q", x, Vector(Atom("S", x), Atom("T", x))))
  }

  def rst(spark: org.apache.spark.sql.SparkSession): Catalog = {
    import spark.implicits._
    Catalog("R" -> (10L to 13L).map(a => (a, 0L)).toDF("r_a", "r_b"),
      "S" -> Seq(1L, 2L).toDF("s"), "T" -> Seq(2L, 3L).toDF("t"))
  }
}
