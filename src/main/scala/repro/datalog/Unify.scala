package repro.datalog

/** Unification of a rule with a provenance-question p-tuple (paper §5.1):
  * head variables at positions where the p-tuple holds a constant are bound
  * to that constant throughout the rule, so only derivations of answers
  * matching the p-tuple are generated.
  */
object Unify {

  /** Result of unifying a rule with a p-tuple.
    *
    * @param rule          the unified rule `r_t` (constants substituted)
    * @param bound         substitution applied to the original rule's variables
    * @param unboundVars   variables of `r_t`, in the original rule's
    *                      first-occurrence order — the pattern argument order
    */
  final case class Unified(rule: Rule, bound: Map[Var, Any], unboundVars: Vector[Var])

  /** Unify `rule` with `t`. Returns None when the rule head cannot produce
    * any tuple matching `t` (constant clash), in which case the rule
    * contributes nothing to the provenance of the question.
    */
  def unify(rule: Rule, t: PTuple): Option[Unified] = {
    require(t.arity == rule.headArgs.size,
      s"p-tuple arity ${t.arity} != head arity ${rule.headArgs.size} of ${rule.name}")
    require(t.pred == rule.headPred,
      s"p-tuple predicate ${t.pred} != head predicate ${rule.headPred}")

    // Accumulate bindings; detect clashes (same var forced to two constants,
    // or a head constant disagreeing with the p-tuple constant).
    var binding = Map.empty[Var, Any]
    for (((ht, pt), _) <- rule.headArgs.zip(t.args).zipWithIndex) (ht, pt) match {
      case (Const(c1), Const(c2)) if c1 != c2 => return None
      case (v: Var, Const(c)) =>
        binding.get(v) match {
          case Some(prev) if prev != c => return None
          case _                       => binding += (v -> c)
        }
      case _ => // head constant matching, or p-tuple placeholder: no binding
    }

    def subst(term: Term): Term = term match {
      case v: Var => binding.get(v).map(Const(_)).getOrElse(v)
      case c      => c
    }

    val unified = rule.copy(
      headArgs = rule.headArgs.map(subst),
      atoms = rule.atoms.map(a => a.copy(args = a.args.map(subst))),
      comparisons = rule.comparisons.map(c =>
        Comparison(subst(c.left), c.op, subst(c.right))),
    )
    Some(Unified(unified, binding, unified.variables))
  }
}
