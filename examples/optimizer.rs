//! Semantic query optimization via KFOPCE reasoning (§4).
//!
//! Corollary 4.1: KFOPCE-equivalent constraints are interchangeable.
//! Corollary 4.2: under a satisfied constraint, KFOPCE-equivalent queries
//! have the same answers — so a query can be *rewritten to a cheaper
//! equivalent before evaluation*. This example optimizes a conjunctive
//! epistemic query under a functional-dependency-style constraint and
//! measures the saved prover work.
//!
//! Run with: `cargo run --example optimizer`

use epilog::prelude::*;
use epilog::semantics::flatten_k45;
use epilog::semantics::optimize::{eliminate_redundant_conjuncts, equivalent_under};
use epilog::syntax::{admissible_constraint, Pred};

fn main() {
    // ----- Corollary 4.1: constraint rewriting --------------------------
    println!("== Corollary 4.1: interchangeable constraint forms ==\n");
    let ic = parse("forall x. K emp(x) -> K ok(x)").unwrap();
    let rewritten = admissible_constraint(&ic);
    println!("  natural form    : {ic}");
    println!("  admissible form : {rewritten}");
    println!(
        "  KFOPCE-equivalent over bounded structures: {}\n",
        epilog::semantics::valid_kfopce(
            &Formula::iff(ic.clone(), rewritten.clone()),
            &[Param::new("c")],
            &[Pred::new("emp", 1), Pred::new("ok", 1)],
        )
    );

    // ----- Corollary 4.2: query optimization ------------------------------
    println!("== Corollary 4.2: conjunct elimination under a constraint ==\n");
    let universe = [Param::new("c")];
    let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
    let constraint = parse("forall x. K p(x) -> K q(x)").unwrap();
    let query = parse("K p(x) & K q(x)").unwrap();
    let optimized = eliminate_redundant_conjuncts(&constraint, &query, &universe, &preds);
    println!("  constraint : {constraint}");
    println!("  query      : {query}");
    println!("  optimized  : {optimized}");
    assert!(equivalent_under(
        &constraint,
        &query,
        &optimized,
        &universe,
        &preds
    ));

    // Verify identical answers on a database satisfying the constraint,
    // and compare the prover work saved.
    let mut src = String::new();
    for i in 0..8 {
        src.push_str(&format!("p(a{i})\nq(a{i})\n"));
    }
    src.push_str("q(extra)\n");
    let db = EpistemicDb::from_text(&src).unwrap();
    assert_eq!(
        db.ask(&constraint),
        Answer::Yes,
        "DB satisfies the constraint"
    );

    // Fresh databases per run so the prover's memo table cannot blur the
    // comparison.
    let full = db.demo_all(&query).unwrap();
    let calls_full = db.prover().sat_calls();
    let db2 = EpistemicDb::from_text(&src).unwrap();
    let opt = db2.demo_all(&optimized).unwrap();
    let calls_opt = db2.prover().sat_calls();
    assert_eq!(full, opt, "Corollary 4.2: same answers");
    println!(
        "\n  answers agree ({} tuples); prover calls {} -> {} ({}% saved)\n",
        full.len(),
        calls_full,
        calls_opt,
        (100 * (calls_full.saturating_sub(calls_opt))) / calls_full.max(1)
    );

    // ----- Modal flattening ------------------------------------------------
    println!("== K45 modal flattening (valid in the weak-S5 semantics) ==\n");
    for src in ["K K p", "K ~K p", "K (p & q)", "K (K p & q)"] {
        let w = parse(src).unwrap();
        println!("  {src:<14} ~> {}", flatten_k45(&w));
    }
}
