package repro.bench

import repro.SparkSpec
import repro.data.{Datasets, Queries}
import repro.datalog.{Catalog, Program, ProvQuestion}
import repro.summarize.{Summarizer, TopK}

/** Fig 8 reproduction: runtime of the top-k construction step alone,
  * varying k from 1 to 10, with the patterns (candidates + completeness
  * estimates) provided as input — exactly the paper's setup. The pool is
  * `Summarizer.summarize`'s `allPatterns`, the pool its own top-k search
  * saw, so a union's rules carry their provenance-share weights. Getting it
  * costs one k = 3 search per case, outside the timed runs.
  */
class Fig8TopKBench extends SparkSpec {

  /** The summarizer's pattern pool for a (query, question) pair at sample size nS. */
  private def patterns(program: Program, cat: Catalog, pq: ProvQuestion, nS: Int) =
    Summarizer.summarize(spark, program, cat, pq, Summarizer.Config(nS = nS, seed = 42L)).allPatterns

  test("Fig 8: top-k runtime for k = 1..10 with patterns as input") {
    val cases = Seq(
      ("r1/whynot lic10K S1000", patterns(Queries.r1,
        Datasets.license(spark, 10000), Queries.whynotR1, 1000)),
      ("r4/whynot mov5K S1000", patterns(Queries.r4,
        Datasets.movies(spark, 5000), Queries.whynotR4, 1000)),
      ("r1/why lic10K S1000", patterns(Queries.r1,
        Datasets.license(spark, 10000), Queries.whyR1, 1000)),
    )
    val rows = for {
      (name, pool) <- cases
      k <- 1 to 10
    } yield {
      val (s, t) = Bench.timeMs(TopK.summarize(pool, k))
      Seq(name, pool.size.toString, k.toString, Bench.ms(t),
        Bench.f3(s.cpLow), Bench.f3(s.info), s.optimal.toString, s.pops.toString)
    }
    Bench.table("Fig 8 — top-k construction runtime",
      Seq("case", "#patterns", "k", "topk_ms", "cp", "info", "optimal", "pops"), rows)
    assert(rows.size == 30)
  }
}
