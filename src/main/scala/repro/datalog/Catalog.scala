package repro.datalog

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Binds relation names used in Datalog atoms to DataFrames and exposes
  * per-attribute domains.
  *
  * The paper (§5.2) assumes the user specifies the domain `D_A` of every
  * attribute `A` as a unary query; the "reasonable default" is the set of
  * distinct values occurring in that attribute (active domain, §2.1). We
  * mirror that: `domain(rel, pos)` defaults to the column's values but can
  * be overridden per attribute. Either is returned as it is: NULLs and
  * duplicates are removed by [[repro.prov.DerivationOps.varDomain]], once
  * over all the attributes a variable binds, or, for a variable that binds
  * one attribute that is not overridden, by the aggregate of
  * [[repro.prov.DerivationOps.domainInput]].
  */
final class Catalog(
    relations: Map[String, DataFrame],
    domainOverrides: Map[(String, Int), DataFrame] = Map.empty,
) extends Serializable {

  def relation(name: String): DataFrame =
    relations.getOrElse(name, sys.error(s"unknown relation: $name"))

  def has(name: String): Boolean = relations.contains(name)

  def columns(name: String): Seq[String] = relation(name).columns.toSeq

  def arity(name: String): Int = relation(name).columns.length

  /** Domain `D_A` for attribute at position `pos` (0-based) of `rel`:
    * a single-column DataFrame named "v", NULLs and duplicates included.
    */
  def domain(rel: String, pos: Int): DataFrame =
    domainOverride(rel, pos).getOrElse(relation(rel).select(col(columns(rel)(pos)))).toDF("v")

  /** The domain [[withDomain]] set for the attribute, if any. */
  def domainOverride(rel: String, pos: Int): Option[DataFrame] = domainOverrides.get((rel, pos))

  def withDomain(rel: String, pos: Int, dom: DataFrame): Catalog =
    new Catalog(relations, domainOverrides + ((rel, pos) -> dom))

  /** Validate that every atom of the rule refers to a known relation with
    * matching arity — catches schema drift between queries and generators.
    */
  def validate(rule: Rule): Unit =
    rule.atoms.foreach { a =>
      require(has(a.relation), s"rule ${rule.name}: unknown relation ${a.relation}")
      require(arity(a.relation) == a.arity,
        s"rule ${rule.name}: atom $a has arity ${a.arity} but relation " +
          s"${a.relation} has ${arity(a.relation)} columns")
    }
}

object Catalog {
  def apply(rels: (String, DataFrame)*): Catalog = new Catalog(rels.toMap)
}
