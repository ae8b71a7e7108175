package repro.baseline

import org.apache.spark.sql.{Row, SparkSession}
import repro.datalog._
import repro.sampling.BatchSampler

/** Single-derivation baseline (paper §9.3): return exactly one (annotated)
  * derivation from the provenance of the question, like the Y! family of
  * systems — fast, but explains only one of possibly trillions of failed
  * derivations. Implemented by running the batch sampler with n_S = 1
  * against the first rule that yields provenance.
  */
object SingleDerivation {

  final case class Explanation(ruleName: String, args: Seq[Any], goals: Seq[Boolean])

  def explain(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      seed: Long = 42L,
  ): Option[Explanation] = {
    val cfg = BatchSampler.Config(nS = 1, seed = seed)
    program.rules.iterator.flatMap { r =>
      BatchSampler.sample(spark, program, r, catalog, pq, cfg).flatMap { rs =>
        rs.sample.limit(1).collect().headOption.map { (row: Row) =>
          Explanation(
            r.name,
            rs.varCols.map(v => row.get(row.fieldIndex(v))),
            rs.goalColNames.map(g => row.getBoolean(row.fieldIndex(g))),
          )
        }
      }
    }.nextOption()
  }
}
