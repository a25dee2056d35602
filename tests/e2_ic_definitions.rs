//! E2 — the Section 3 comparison of integrity-constraint definitions.
//!
//! The paper's two counterexamples, as a full definitions-by-databases
//! table: `DB = {emp(Mary)}` should *violate* the social-security
//! constraint, `DB = {}` should *satisfy* it. Only the epistemic
//! Definition 3.5 gets both right.

use epilog::prelude::*;
use epilog::semantics::{ic_satisfaction, IcDefinition, IcReport};

fn ic_fo() -> Formula {
    parse("forall x. emp(x) -> exists y. ss(x, y)").unwrap()
}

fn ic_modal() -> Formula {
    parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap()
}

#[test]
fn definition_31_wrong_on_emp_mary() {
    // Consistency: {emp(Mary)} + IC is satisfiable, so 3.1 says satisfied
    // — but Mary has no number on file.
    let p = Prover::new(Theory::from_text("emp(Mary)").unwrap());
    assert_eq!(
        ic_satisfaction(&p, &ic_fo(), IcDefinition::Consistency),
        IcReport::Satisfied
    );
}

#[test]
fn definition_32_wrong_on_empty_db() {
    // Entailment: {} ⊭ IC, so 3.2 says violated — but an empty DB should
    // satisfy every such constraint.
    let p = Prover::new(Theory::empty());
    assert_eq!(
        ic_satisfaction(&p, &ic_fo(), IcDefinition::Entailment),
        IcReport::Violated
    );
}

#[test]
fn definition_35_right_on_both() {
    let mary = Prover::new(Theory::from_text("emp(Mary)").unwrap());
    assert_eq!(
        ic_satisfaction(&mary, &ic_modal(), IcDefinition::Epistemic),
        IcReport::Violated,
        "Mary is a known employee with no known number"
    );
    let empty = Prover::new(Theory::empty());
    assert_eq!(
        ic_satisfaction(&empty, &ic_modal(), IcDefinition::Epistemic),
        IcReport::Satisfied,
        "no known employees, nothing to check"
    );
    let complete = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
    assert_eq!(
        ic_satisfaction(&complete, &ic_modal(), IcDefinition::Epistemic),
        IcReport::Satisfied
    );
}

#[test]
fn full_table() {
    // The complete matrix the paper implies, for the record.
    use IcDefinition::*;
    use IcReport::*;
    let cases: Vec<(&str, IcDefinition, IcReport)> = vec![
        // DB = {emp(Mary)} — intuition: violated.
        ("emp(Mary)", Consistency, Satisfied),    // wrong
        ("emp(Mary)", Entailment, Violated),      // right, by accident
        ("emp(Mary)", CompConsistency, Violated), // right (Comp closes ss)
        ("emp(Mary)", CompEntailment, Violated),  // right (Comp closes ss)
        // DB = {} — intuition: satisfied.
        ("", Consistency, Satisfied),     // right, by accident
        ("", Entailment, Violated),       // wrong
        ("", CompConsistency, Satisfied), // right
        ("", CompEntailment, Satisfied),  // right
    ];
    for (src, def, expected) in cases {
        let p = Prover::new(Theory::from_text(src).unwrap());
        assert_eq!(
            ic_satisfaction(&p, &ic_fo(), def),
            expected,
            "DB = {{{src}}} under {def}"
        );
    }
    // And the epistemic definition is right on both (tested above); the
    // decisive separation is the disjunctive database, where Comp does
    // not even apply but Definition 3.5 still works:
    let disj = Prover::new(Theory::from_text("emp(Mary) | emp(Sue)").unwrap());
    assert_eq!(
        ic_satisfaction(&disj, &ic_fo(), CompEntailment),
        Inapplicable
    );
    assert_eq!(
        ic_satisfaction(&disj, &ic_modal(), Epistemic),
        Satisfied,
        "neither Mary nor Sue is a *known* employee, so nothing is required"
    );
}

#[test]
fn update_rejection_workflow() {
    // Integrity maintenance = query evaluation, wired into updates.
    let mut db = EpistemicDb::from_text("").unwrap();
    db.add_constraint(ic_modal()).unwrap();
    assert!(db.assert(parse("emp(Mary)").unwrap()).is_err());
    db.assert(parse("ss(Mary, n1)").unwrap()).unwrap();
    db.assert(parse("emp(Mary)").unwrap()).unwrap();
    assert!(db.satisfies_constraints());
}
