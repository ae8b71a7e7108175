package repro.summarize

/** A derivation pattern (paper Def. 4) in unified-rule space: one slot per
  * unbound variable of `r_t`, `None` meaning a placeholder, plus the goal
  * annotation vector. Placeholder names are irrelevant to pattern semantics
  * (paper §6) and the LCA method never repeats a placeholder, so an
  * anonymous-placeholder encoding (the relational side uses NULL) is
  * lossless.
  *
  * @param cp estimated completeness, already weighted by the rule's share of
  *           |Prov(Φ)| for multi-rule queries
  */
final case class Pattern(
    ruleName: String,
    args: Vector[Option[Any]],
    goals: Vector[Boolean],
    cp: Double,
) {

  def arity: Int = args.size

  /** Informativeness (paper Def. 8). In unified space every p-tuple constant
    * is already substituted, so info = (#constants)/(arity of the unified
    * rule) ≡ (C(p)−C(t))/(arity(p)−C(t)) when the head variables bound by
    * the question are distinct (true for all paper queries). A fully ground
    * unified rule (arity 0) admits only the empty pattern, which conveys
    * everything it can: info = 1.
    */
  def info: Double =
    if (arity == 0) 1.0 else args.count(_.isDefined).toDouble / arity

  /** `p1 ⪯p p2` — `that` generalizes `this` (paper §8.1): same rule, same
    * goal annotations, and `that` has a placeholder or the same constant at
    * every position. Implies match-set containment.
    */
  def generalizedBy(that: Pattern): Boolean =
    ruleName == that.ruleName && goals == that.goals && arity == that.arity &&
      args.indices.forall(i => that.args(i).isEmpty || args(i) == that.args(i))

  /** `p1 ⊥p p2` (paper §8.1): different rules, different goal annotations,
    * or a conflicting constant at some position. Implies disjoint match sets.
    */
  def disjointWith(that: Pattern): Boolean =
    ruleName != that.ruleName || goals != that.goals ||
      (0 until math.min(arity, that.arity)).exists { i =>
        args(i).isDefined && that.args(i).isDefined && args(i) != that.args(i)
      }

  /** Does this pattern match an annotated derivation (paper Def. 5)?
    * Placeholders are pairwise distinct (LCA patterns), so matching is a
    * per-position check.
    */
  def matches(derivation: Seq[Any], dGoals: Seq[Boolean]): Boolean =
    goals == dGoals && derivation.size == arity &&
      args.zip(derivation).forall {
        case (None, _)          => true
        case (Some(a), d)       => a == d
      }

  override def toString: String = {
    val as = args.map(_.map(_.toString).getOrElse("_")).mkString(", ")
    val gs = goals.map(g => if (g) "T" else "F").mkString("")
    f"$ruleName($as)-($gs) cp=$cp%.4f info=$info%.3f"
  }
}

object Pattern {
  /** Harmonic mean used by the summary score (paper §3.4); 0 when either
    * component is 0.
    */
  def harmonic(a: Double, b: Double): Double =
    if (a <= 0.0 || b <= 0.0) 0.0 else 2.0 * a * b / (a + b)
}
