package repro.baseline

import org.apache.spark.sql.SparkSession
import repro.datalog._
import repro.sampling.BatchSampler

/** Single-derivation baseline (paper §9.3): return exactly one (annotated)
  * derivation from the provenance of the question, like the Y! family of
  * systems — fast, but explains only one of possibly trillions of failed
  * derivations. Implemented by running the batch sampler with n_S = 1 and
  * taking the first sampled derivation of the first rule that has
  * provenance.
  */
object SingleDerivation {

  final case class Explanation(ruleName: String, args: Seq[Any], goals: Seq[Boolean])

  def explain(
      spark: SparkSession,
      program: Program,
      catalog: Catalog,
      pq: ProvQuestion,
      seed: Long = 42L,
  ): Option[Explanation] =
    BatchSampler.sample(spark, program, catalog, pq, BatchSampler.Config(nS = 1, seed = seed))
      .headOption.map { rs =>
        val (row, nv) = (rs.rows.head, rs.varCols.size)
        Explanation(rs.rule.name, Vector.tabulate(nv)(row.get),
          Vector.tabulate(rs.goalColNames.size)(j => row.getBoolean(nv + j)))
      }
}
