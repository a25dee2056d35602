//! A university registrar with epistemic integrity constraints (§3).
//!
//! Shows (a) the failure modes of the classical constraint definitions
//! 3.1–3.4 on the paper's own examples, and (b) a living database whose
//! updates are guarded by the paper's epistemic constraints
//! (Definition 3.5) — including the functional dependency of Example 3.5
//! and the sex-totality constraint of Example 3.2.
//!
//! Run with: `cargo run --example integrity`

use epilog::prelude::*;
use epilog::semantics::{ic_satisfaction, IcDefinition};

fn main() {
    // ----- Part 1: the emp/ss# comparison table ------------------------
    println!("== Definitions 3.1-3.5 on the emp/ss# constraint ==\n");
    let ic_fo = parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap();
    let ic_modal = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();

    let dbs = [("DB = {emp(Mary)}", "emp(Mary)"), ("DB = {}", "")];
    let defs = [
        IcDefinition::Consistency,
        IcDefinition::Entailment,
        IcDefinition::CompConsistency,
        IcDefinition::CompEntailment,
        IcDefinition::Epistemic,
    ];
    for (label, src) in dbs {
        println!(
            "  {label}  (intuition: {} satisfy the constraint)",
            if src.is_empty() {
                "SHOULD"
            } else {
                "should NOT"
            }
        );
        let prover = Prover::new(Theory::from_text(src).unwrap());
        for def in defs {
            let ic = if def == IcDefinition::Epistemic {
                &ic_modal
            } else {
                &ic_fo
            };
            let verdict = ic_satisfaction(&prover, ic, def);
            println!("    {def:<28} -> {verdict}");
        }
        println!();
    }

    // ----- Part 2: a registrar under epistemic constraints -------------
    println!("== A registrar with live constraint checking ==\n");
    let mut db = EpistemicDb::from_text("").unwrap();
    // Example 3.4: every known employee has a number known to exist.
    db.add_constraint(parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap())
        .unwrap();
    // Example 3.5: social security numbers are unique (an epistemic FD).
    db.add_constraint(parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap())
        .unwrap();
    // Example 3.1: nobody is both male and female.
    db.add_constraint(parse("forall x. ~K (male(x) & female(x))").unwrap())
        .unwrap();

    let updates = [
        "ss(Mary, n1)",
        "emp(Mary)",
        "emp(Sue)",             // rejected: no number on file for Sue
        "exists y. ss(Sue, y)", // a number known to exist (a null) suffices
        "emp(Sue)",             // now accepted
        "ss(Mary, n2)",         // rejected: violates the functional dependency
        "male(Sam)",
        "female(Sam)", // rejected: Example 3.1
    ];
    for u in updates {
        let w = parse(u).unwrap();
        match db.assert(w) {
            Ok(()) => println!("  + {u:<24} accepted"),
            Err(e) => println!("  + {u:<24} REJECTED ({e})"),
        }
    }

    println!("\n  final state:\n{}", indent(&db.theory().to_string()));
    assert!(db.satisfies_constraints());

    // ----- Part 3: constraint checking IS query evaluation -------------
    println!("== Constraint checking is query evaluation (§3) ==\n");
    for ic in db.constraints() {
        let as_query = db.ask(ic);
        println!("  {ic}\n      as a query -> {as_query}");
        assert_eq!(as_query, Answer::Yes);
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
