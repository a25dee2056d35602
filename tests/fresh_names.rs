//! A registered constraint interns its names once, at registration.
//!
//! Renaming a constraint's quantifiers apart interns a fresh variable
//! whenever two of them share a name, and the symbol table never frees
//! one. So a constraint rewritten per commit would leak a name per
//! commit, over the wire too. The fresh-name counter is process-global,
//! which is why this test has a binary of its own.

use epilog::prelude::*;

/// The counter value a fresh variable's name ends in (`hint'n`).
fn counter(v: Var) -> u64 {
    let name = v.name();
    let (_, n) = name.rsplit_once('\'').expect("a fresh name");
    n.parse().expect("a counter")
}

#[test]
fn an_out_of_fragment_constraint_interns_no_name_per_commit() {
    let mut db = EpistemicDb::from_text("p(a0)\nq(a0)\nr(a0)").unwrap();
    // Two quantifiers named `x`, and outside the routed fragment: checked
    // in full, through `demo` on its admissible rewrite, at every commit.
    let ic = parse("(forall x. K p(x) -> K q(x)) & (forall x. K q(x) -> K r(x))").unwrap();
    db.add_constraint(ic).unwrap();
    let before = counter(Var::fresh("probe"));
    for i in 1..=100 {
        let facts = ["p", "q", "r"].map(|pred| parse(&format!("{pred}(a{i})")).unwrap());
        let [p, q, r] = facts;
        let report = db
            .transaction()
            .assert(p)
            .assert(q)
            .assert(r)
            .commit()
            .unwrap();
        assert_eq!(report.checks.full, 1, "checked in full");
    }
    // A commit that violates it is still refused.
    assert!(db.assert(parse("p(b)").unwrap()).is_err());
    let after = counter(Var::fresh("probe"));
    assert_eq!(after, before + 1, "{} names interned", after - before - 1);
}
