//! Closed worlds: Section 7 end to end.
//!
//! * Theorem 7.1 — under `Closure(Σ)` the `K` operator evaporates; the
//!   database always "knows whether" (Example 7.1).
//! * Example 7.2 — circumscription and the GCWA do *not* collapse `K`.
//! * Theorem 7.3 / Example 7.3 — closed-world evaluation by running
//!   `demo` on the modalized query `ℛ(w)` against the *open* database.
//! * The relational-database special case: a set of ground atoms under
//!   CWA behaves exactly like a classical relational instance.
//!
//! Run with: `cargo run --example closed_world`

use epilog::prelude::*;
use epilog::semantics::closure::{closure_theory, cwa_demo};
use epilog::semantics::{minimal_worlds, modalize, strip_k, ModelSet};
use epilog::syntax::Pred;

fn main() {
    // ----- Theorem 7.1: K evaporates under CWA ---------------------------
    println!("== Theorem 7.1: the closed-world collapse of K ==\n");
    let db = EpistemicDb::from_text("p(a)\np(b)\nq(a)").unwrap();
    let closed = ClosedDb::new(db.prover());
    let query = parse("forall x. K p(x) | K ~p(x)").unwrap();
    println!("  open   ask({query})  -> {}", db.ask(&query));
    println!("  closed ask({query})  -> {}", closed.ask(&query));
    println!(
        "  closed ask(stripped: {}) -> {}\n",
        strip_k(&query),
        closed.ask(&strip_k(&query))
    );
    assert_eq!(closed.ask(&query), closed.ask(&strip_k(&query)));

    // ----- Example 7.2: Circ/GCWA do NOT collapse K ----------------------
    println!("== Example 7.2: circumscription keeps K meaningful ==\n");
    let disj = Theory::from_text("p | q").unwrap();
    let ms = ModelSet::models(
        &disj,
        &[Param::new("c")],
        &[Pred::new("p", 0), Pred::new("q", 0)],
    );
    let circ = minimal_worlds(&ms);
    let notkp = parse("~K p").unwrap();
    let notp = parse("~p").unwrap();
    println!(
        "  Circ({{p | q}}) has {} minimal models",
        circ.worlds().len()
    );
    println!("  Circ ⊨ ~K p ?  {}", circ.certain(&notkp));
    println!(
        "  Circ ⊨ ~p   ?  {}   <- K genuinely matters here\n",
        circ.certain(&notp)
    );
    assert!(circ.certain(&notkp));
    assert!(!circ.certain(&notp));
    // Whereas Closure({p ∨ q}) is outright unsatisfiable:
    let pq = EpistemicDb::from_text("p | q").unwrap();
    println!(
        "  Closure({{p | q}}) satisfiable? {}  (the classic CWA failure)\n",
        ClosedDb::new(pq.prover()).satisfiable()
    );

    // ----- Theorem 7.3 / Example 7.3: demo(ℛ(w)) -------------------------
    println!("== Example 7.3: CWA evaluation via demo(R(w)) ==\n");
    let graph = EpistemicDb::from_text("q(a)\nq(b)\nq(c)\nr(a, b)\nr(b, c)").unwrap();
    let w = parse("q(x) & ~(exists y. r(x, y) & q(y))").unwrap();
    println!("  query w       = {w}");
    println!("  modalized R(w) = {}", modalize(&w));
    let via_demo: Vec<String> = cwa_demo(graph.prover(), &w)
        .unwrap()
        .map(|t| t[0].name())
        .collect();
    println!("  demo(R(w), Σ) answers -> {via_demo:?}");
    let via_closure: Vec<String> = ClosedDb::new(graph.prover())
        .answers(&w)
        .iter()
        .map(|t| t[0].name())
        .collect();
    println!("  Closure(Σ) answers     -> {via_closure:?}");
    assert_eq!(via_demo, via_closure);

    // ----- Relational databases --------------------------------------------
    println!("\n== Relational instance under CWA ==\n");
    let rel = EpistemicDb::from_text("Emp(Mary, Sales)\nEmp(Sue, Eng)\nMgr(Sales, Ann)").unwrap();
    let closed = ClosedDb::new(rel.prover());
    assert!(closed.satisfiable());
    for q in [
        "Emp(Mary, Sales)",
        "Emp(Mary, Eng)",
        "exists x. Emp(x, Eng)",
        "forall x, y. Emp(x, y) -> exists z. Mgr(y, z)",
    ] {
        println!("  {q:<46} -> {}", closed.ask(&parse(q).unwrap()));
    }

    // The explicit finitely-axiomatized closure agrees.
    let explicit = Prover::new(closure_theory(rel.prover()));
    assert!(explicit.entails(&parse("~Emp(Mary, Eng)").unwrap()));
    println!("\n  explicit Closure(Σ) entails ~Emp(Mary, Eng): ok");
}
