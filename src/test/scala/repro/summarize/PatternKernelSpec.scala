package repro.summarize

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import scala.jdk.CollectionConverters._

/** The driver-side `Q_lca`/`Q_match` kernel against the Catalyst joins of
  * [[CatalystReference]]: the same candidates and the same (args, goals, cp)
  * multiset on random samples.
  */
class PatternKernelSpec extends SparkSpec {
  import PatternKernelSpec.Sample

  private def dataFrame(s: Sample): DataFrame = spark.createDataFrame(
    s.rows.map { case (vs, gs) => Row.fromSeq(vs ++ gs) }.asJava,
    StructType(s.varCols.map(StructField(_, LongType)) ++
      s.goalCols.map(StructField(_, BooleanType, nullable = false))))

  // 0–4 variable columns (0 = a ground rule) over a few repeated values and
  // NULL, 1–3 goals with up to three goal vectors, and duplicated rows.
  private val sampleGen: Gen[Sample] = for {
    nVars  <- Gen.choose(0, 4)
    nGoals <- Gen.choose(1, 3)
    vecs   <- Gen.listOfN(3, Gen.listOfN(nGoals, Gen.oneOf(true, false)).map(_.toVector))
    value   = Gen.frequency(1 -> Gen.const(null), 4 -> Gen.choose(0L, 3L).map(v => v: Any))
    row     = Gen.zip(Gen.listOfN(nVars, value).map(_.toVector), Gen.oneOf(vecs))
    rows   <- Gen.choose(1, 24).flatMap(Gen.listOfN(_, row))
    dups   <- Gen.someOf(rows)
  } yield Sample(nVars, nGoals, (rows ++ dups).toVector)

  private def kernelPatterns(s: Sample, df: DataFrame): Vector[Pattern] = {
    val cands = GoalGroup.split(df.collect().toSeq, s.nVars, s.nGoals).map(g => (g, Lca.generalize(g)))
    Coverage.patterns("r", cands, s.rows.size.toLong, 0.5)
  }

  private def referencePatterns(s: Sample, df: DataFrame): Vector[Pattern] = {
    val counted = CatalystReference.matchCounts(
      CatalystReference.candidates(df, s.varCols, s.goalCols), df, s.varCols, s.goalCols)
    Coverage.collectPatterns("r", counted, s.varCols, s.goalCols, s.rows.size.toLong, 0.5)
  }

  private def candidateSet(df: DataFrame, nVars: Int): Set[(Vector[Option[Any]], Vector[Boolean])] =
    df.collect().map(r => (Vector.tabulate(nVars)(i => Option(r.get(i))),
      Vector.tabulate(r.size - nVars)(j => r.getBoolean(nVars + j)))).toSet

  test("kernel candidates and (args, goals, cp) multiset equal the Catalyst joins") {
    val prop = Prop.forAll(sampleGen) { s =>
      val df  = dataFrame(s).cache()
      val got = kernelPatterns(s, df)
      val exp = referencePatterns(s, df)
      val refCands = candidateSet(CatalystReference.candidates(df, s.varCols, s.goalCols), s.nVars)
      val ok =
        got.map(p => (p.args, p.goals)).toSet == refCands &&
          got.size == refCands.size &&
          CatalystReference.multiset(got) == CatalystReference.multiset(exp) &&
          candidateSet(Lca.candidates(df, s.varCols, s.goalCols), s.nVars) == refCands
      df.unpersist()
      Prop(ok) :| s"sample $s: kernel $got, reference $exp"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(res.passed, res)
  }

  test("match-count adapter equals the theta join on the reference candidates") {
    val s = Sample(2, 2, Vector(
      (Vector(1L, 2L), Vector(true, false)), (Vector(1L, null), Vector(true, false)),
      (Vector(1L, 2L), Vector(true, false)), (Vector(null, null), Vector(false, false)),
      (Vector(3L, 2L), Vector(false, false)), (Vector(3L, 2L), Vector(true, false))))
    val df    = dataFrame(s)
    val cands = CatalystReference.candidates(df, s.varCols, s.goalCols)
    def counts(counted: DataFrame) = counted.collect().map(r =>
      (Vector.tabulate(2)(i => Option(r.get(i))), r.getBoolean(2), r.getBoolean(3)) -> r.getLong(4)).toMap
    val got = counts(Coverage.matchCounts(cands, df, s.varCols, s.goalCols))
    assert(got == counts(CatalystReference.matchCounts(cands, df, s.varCols, s.goalCols)))
    // NULL equals nothing: (1,_) matches (1,2) twice and (1,NULL) once, and
    // the all-NULL row generalizes only to the all-placeholder pattern.
    assert(got((Vector(Some(1L), None), true, false)) == 3L)
    assert(got.keySet.filterNot(_._2) ==
      Set((Vector(None, None), false, false), (Vector(Some(3L), Some(2L)), false, false)))
    assert(got((Vector(None, None), false, false)) == 2L)
  }
}

object PatternKernelSpec {

  /** A sample: variable rows (`null` = NULL), goal vectors, column counts. */
  final case class Sample(nVars: Int, nGoals: Int, rows: Vector[(Vector[Any], Vector[Boolean])]) {
    val varCols: Seq[String]  = (0 until nVars).map(i => s"X$i")
    val goalCols: Seq[String] = (0 until nGoals).map(j => s"g$j")
  }
}
