package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.prov.{FullWhyNot, WhyProv}
import repro.summarize.{Pattern, Summarizer}

/** Fig 10 reproduction: relative error of the sampling-based quality
  * metrics. A summary is computed from a sample; its completeness is then
  * re-measured exactly against the FULL provenance (why: always feasible;
  * why-not: feasible here because r1's unified derivation space is
  * |I|·|B|·|G|·|T|, small at 1K rows). For r6 over crimes, where FULL
  * why-not is unaffordable, the largest sample serves as the reference —
  * exactly the paper's fallback.
  */
class Fig10QualityErrorBench extends SparkSpec {

  private def relErr(approx: Double, exact: Double): Double =
    if (exact == 0.0) 0.0 else math.abs(approx - exact) / exact

  test("Fig 10a/10b: r1 why-not over license 1K — sampled cp vs exact cp") {
    val cat  = Datasets.license(spark, 1000)
    val full = FullWhyNot.derivations(spark, Queries.r1, Queries.r1.rules.head,
      cat, Queries.whynotR1.tuple).get.cache()
    val varCols  = Seq("I", "B", "G", "T")
    val goalCols = Seq("g0", "g1")
    val rows = for {
      nS <- Seq(100, 500, 1000, 5000)
      k  <- Seq(1, 3, 5, 10)
    } yield {
      val res = Summarizer.summarize(spark, Queries.r1, cat, Queries.whynotR1,
        Summarizer.Config(nS = nS, k = k, seed = 17L))
      val approx = res.summary.cpLow
      val exact  = Bench.exactCompleteness(spark, res.summary.patterns, full,
        varCols, goalCols)
      Seq(s"S$nS", k.toString, Bench.f3(approx), Bench.f3(exact),
        Bench.f3(relErr(approx, exact)))
    }
    Bench.table("Fig 10a/10b — r1 why-not quality error (license 1K)",
      Seq("sample", "k", "cp_sampled", "cp_exact", "rel_err"), rows)
    full.unpersist()
    assert(rows.size == 16)
  }

  test("Fig 10: r1 why over license 10K — sampled cp vs exact cp") {
    val cat  = Datasets.license(spark, 10000)
    val full = WhyProv.derivations(Queries.r1.rules.head, cat, Queries.whyR1.tuple).get.cache()
    val varCols  = Seq("I", "B", "G", "T")
    val goalCols = Seq("g0", "g1")
    val rows = for {
      nS <- Seq(100, 500, 1000)
      k  <- Seq(1, 3, 5)
    } yield {
      val res = Summarizer.summarize(spark, Queries.r1, cat, Queries.whyR1,
        Summarizer.Config(nS = nS, k = k, seed = 17L))
      val approx = res.summary.cpLow
      val exact  = Bench.exactCompleteness(spark, res.summary.patterns, full,
        varCols, goalCols)
      Seq(s"S$nS", k.toString, Bench.f3(approx), Bench.f3(exact),
        Bench.f3(relErr(approx, exact)))
    }
    Bench.table("Fig 10 — r1 why quality error (license 10K)",
      Seq("sample", "k", "cp_sampled", "cp_exact", "rel_err"), rows)
    full.unpersist()
    assert(rows.size == 9)
  }

  test("Fig 10c/10d: r6 why-not over crimes 100K — reference = largest sample") {
    val cat = Datasets.crimes(spark, 100000)
    // Reference: S10K summary metrics (paper: where FULL is infeasible,
    // compare against the largest sample size).
    val rows = for {
      k <- Seq(1, 3, 5, 10)
    } yield {
      val ref = Summarizer.summarize(spark, Queries.r6, cat, Queries.whynotR6,
        Summarizer.Config(nS = 10000, k = k, seed = 17L))
      val small = for (nS <- Seq(100, 1000)) yield {
        val res = Summarizer.summarize(spark, Queries.r6, cat, Queries.whynotR6,
          Summarizer.Config(nS = nS, k = k, seed = 17L))
        Bench.f3(relErr(res.summary.scLow, ref.summary.scLow))
      }
      Seq(k.toString, Bench.f3(ref.summary.scLow), small(0), small(1))
    }
    Bench.table("Fig 10c/10d — r6 why-not score error vs S10K reference (crimes 100K)",
      Seq("k", "score_S10K", "err_S100", "err_S1000"), rows)
    assert(rows.size == 4)
  }
}
