package repro.prov

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.datalog._

/** Why-provenance capture by query instrumentation (paper §4, following
  * PUG [22, 20]): the successful derivations of a rule are exactly the
  * satisfying valuations of its body, which [[DatalogEval.bindings]]
  * produces; all goal annotations are T for a successful derivation
  * (negated goals succeed when the tuple is absent, Def. 1).
  */
object WhyProv {

  /** Annotated why-provenance derivations of one rule for p-tuple `t`:
    * columns = unbound variables of the unified rule + `g0..g(m-1)` (all
    * true). None only when the rule cannot match `t` (a head clash); a
    * violated ground comparison gives an empty frame.
    */
  def derivations(rule: Rule, catalog: Catalog, t: PTuple): Option[DataFrame] =
    Unify.unify(rule, t).map(u => successful(u, catalog))

  /** The annotated successful derivations of the unified rule `u`: its
    * [[DatalogEval.bindings]], every goal flag true. A ground rule has one
    * valuation, the empty one, which succeeds iff every goal and comparison
    * holds.
    */
  def successful(u: Unify.Unified, catalog: Catalog): DataFrame =
    DatalogEval.bindings(u.rule, catalog).select(u.unboundVars.map(v => col(v.name)) ++
      DerivationOps.goalCols(u.rule.atoms.size).map(g => lit(true).as(g)): _*)
}

/** Exhaustive why-not enumeration — the paper's FULL baseline (§9.1) and
  * the ground truth for tests: [[DerivationOps.whynotDerivations]] over the
  * cross product of the complete per-variable domains instead of a sample.
  * It is a plan over the domain frames, built without a Spark job, and so
  * independent of the collected domains the sampler enumerates a small
  * space from. Cost is O(Π|D_X|) = O(|D|^n), which is the point: it is only
  * feasible for tiny domains.
  */
object FullWhyNot {

  /** All annotated derivations in Whynot(Q, D, t) contributed by `rule`.
    * Columns = unbound variables + `g0..g(m-1)`. None only when the rule
    * cannot match `t` (a head clash); a violated ground comparison gives an
    * empty frame.
    */
  def derivations(
      spark: SparkSession,
      program: Program,
      rule: Rule,
      catalog: Catalog,
      t: PTuple,
  ): Option[DataFrame] =
    Unify.unify(rule, t).map { u =>
      val domains = u.unboundVars.map(v => DerivationOps.varDomain(u.rule, v, catalog))
      DerivationOps.whynotDerivations(DerivationOps.crossSpace(spark, domains),
        DatalogEval.restrictedAnswers(program, catalog, t), catalog, u.rule)
    }
}
