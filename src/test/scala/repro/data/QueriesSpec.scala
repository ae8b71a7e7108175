package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.datalog._

/** Structural checks that the Fig 4 encodings match the paper. */
class QueriesSpec extends AnyFunSuite {

  test("r1: one positive + one negated goal, constant license class d") {
    val r = Queries.r1.rules.head
    assert(r.positiveAtoms.size == 1 && r.negatedAtoms.size == 1)
    assert(r.atoms.head.args.last == Const("d"))
    assert(r.headPred == "InvalidD")
  }

  test("r2: gender constant f and B < 1953") {
    val r = Queries.r2.rules.head
    assert(r.atoms.head.args(2) == Const("f"))
    assert(r.comparisons == Vector(Comparison(Var("B"), CmpOp.Lt, Const(1953L))))
  }

  test("r3: six goals including negated thriller, two comparisons") {
    val r = Queries.r3.rules.head
    assert(r.atoms.size == 6)
    assert(r.negatedAtoms == Vector(Atom("GENRES", Vector(Var("I"), Const("thriller")), negated = true)))
    assert(r.comparisons.size == 2)
  }

  test("r4: a union of three rules sharing head Players(A)") {
    assert(Queries.r4.rules.size == 3)
    assert(Queries.r4.rules.map(_.headArgs).distinct == Vector(Vector(Var("A"))))
    // r4' and r4'' carry a KEYWORDS goal; r4 does not.
    val kw = Queries.r4.rules.map(_.atoms.exists(_.relation == "KEYWORDS"))
    assert(kw == Vector(false, true, true))
    // All three require Y > 1999 and a rating >= 4.
    Queries.r4.rules.foreach { r =>
      assert(r.comparisons.contains(Comparison(Var("Y"), CmpOp.Gt, Const(1999L))))
      assert(r.comparisons.contains(Comparison(Var("N"), CmpOp.Geq, Const(4L))))
    }
  }

  test("r5/r6: negated ARREST; r6 adds Y > 2012") {
    assert(Queries.r5.rules.head.negatedAtoms.map(_.relation) == Vector("ARREST"))
    assert(Queries.r5.rules.head.atoms.head.args.last == Const("austin"))
    assert(Queries.r6.rules.head.comparisons ==
      Vector(Comparison(Var("Y"), CmpOp.Gt, Const(2012L))))
  }

  test("r8: rating constant 5 inside the RATES atom") {
    val r = Queries.r8.rules.head
    assert(r.atoms.exists(a => a.relation == "RATES" && a.args(2) == Const(5L)))
  }

  test("r9: Hops(h) is a length-h self-join chain") {
    for (h <- 1 to 6) {
      val r = Queries.hops(h).rules.head
      assert(r.atoms.size == h)
      assert(r.atoms.forall(_.relation == "DBLP"))
      // Chained: atom i's second arg is atom i+1's first arg.
      r.atoms.sliding(2).foreach {
        case Vector(a, b) => assert(a.args(1) == b.args(0))
        case _            =>
      }
      assert(r.variables.size == h + 1)
    }
  }

  test("r10: shared order key between ORDERS and LINEITEM, shared cust key") {
    val r = Queries.r10.rules.head
    val cust  = r.atoms.find(_.relation == "CUSTOMER").get
    val ord   = r.atoms.find(_.relation == "ORDERS").get
    val line  = r.atoms.find(_.relation == "LINEITEM").get
    assert(cust.args.head == ord.args(1))  // CK
    assert(ord.args.head == line.args.head) // OK
  }

  test("r11: director constant and budget comparison") {
    val r = Queries.r11.rules.head
    assert(r.atoms.exists(a => a.relation == "CREWS" && a.args(3) == Const("director")))
    assert(r.comparisons == Vector(Comparison(Var("B"), CmpOp.Gt, Const(20000000L))))
  }

  test("r12: tom cruise constant and A >= 4") {
    val r = Queries.r12.rules.head
    assert(r.atoms.exists(a => a.relation == "CASTS" && a.args(3) == Const("tom cruise")))
    assert(r.comparisons == Vector(Comparison(Var("A"), CmpOp.Geq, Const(4L))))
  }

  test("airbnb rule matches Fig 1 (queen anne + date constants)") {
    val r = Queries.airbnb.rules.head
    assert(r.atoms(0).args(4) == Const("queen anne"))
    assert(r.atoms(1).args(1) == Const("2016-11-09"))
    assert(r.headArgs == Vector(Var("N"), Var("R")))
  }

  test("rEx matches Fig 3 (R(X,Z), R(Z,Y), X < Y)") {
    val r = Queries.rEx.rules.head
    assert(r.atoms == Vector(
      Atom("R", Vector(Var("X"), Var("Z"))), Atom("R", Vector(Var("Z"), Var("Y")))))
    assert(r.comparisons == Vector(Comparison(Var("X"), CmpOp.Lt, Var("Y"))))
  }

  test("crimeDesc matches §9.3 (S > 97, head T,N,C,H)") {
    val r = Queries.crimeDesc.rules.head
    assert(r.headArgs == Vector(Var("T"), Var("N"), Var("C"), Var("H")))
    assert(r.comparisons == Vector(Comparison(Var("S"), CmpOp.Gt, Const(97L))))
    assert(r.atoms.size == 4)
  }

  test("Fig 5 questions: why targets existing constants, whynot missing ones") {
    assert(Queries.whyR1.qtype == Why && Queries.whynotR1.qtype == Whynot)
    assert(Queries.whynotR1.tuple == PTuple("InvalidD", Vector(Const("swanton"))))
    assert(Queries.whyR4.tuple == PTuple("Players", Vector(Const("jack black"))))
    assert(Queries.whynotR9.tuple == PTuple("Hops", Vector(Const("xueni pan"))))
    assert(Queries.whyR3.tuple.constantsAt.size == 1)    // E = drama, T/N placeholders
    assert(Queries.whynotR12.tuple.constantsAt.size == 1) // K = spying
  }

  test("chain/star query builders produce safe rules of the right shape") {
    for (j <- 2 to 8; e <- 0 to 2) {
      val c = Queries.chainQuery(j, e).rules.head
      assert(c.isSafe && c.atoms.size == j)
      assert(c.variables.size == (j + 1) + j * e)
    }
    for (d <- 2 to 5; e <- 0 to 2) {
      val s = Queries.starQuery(d, e).rules.head
      assert(s.isSafe && s.atoms.size == d + 1)
      assert(s.variables.size == d + 1 + d * e)
    }
  }
}
