//! E4 — the safety and admissibility classification tables
//! (Definitions 5.1–5.3, Examples 5.1–5.5, Result 5.1, §5.2).

use epilog::prelude::*;
use epilog::semantics::{is_k1, is_normal_query};
use epilog::syntax::{is_subjective, Admissibility};

#[test]
fn example_51_safe_formulas() {
    for src in [
        "p(x, y) & K q(x) & ~K r(x)",
        "exists x. ~r(x)",
        "~K (exists x. exists y. p(x, y) -> q(x) | r(y))",
        "p(x, y) & ~K q(x) & ~K r(y)",
        "exists x. exists y. p(x, y) & ~(K q(x) | K ~r(y))",
    ] {
        assert!(is_safe(&parse(src).unwrap()), "expected safe: {src}");
    }
}

#[test]
fn example_52_unsafe_formulas() {
    for src in [
        "exists x. ~K p(x)",
        "r(x) & ~K p(x) & ~K q(y)",
        "~K q(x) & K r(x)",
    ] {
        assert!(!is_safe(&parse(src).unwrap()), "expected unsafe: {src}");
    }
}

#[test]
fn lemma_51_right_association_preserves_safety() {
    // (w₁ ∧ w₂) ∧ w₃ safe ⇒ w₁ ∧ (w₂ ∧ w₃) safe — systematically, over a
    // family of safe conjunctions.
    let triples = [
        ("p(x, y)", "K q(x)", "~K r(y)"),
        ("p(x, y)", "~K q(x)", "~K r(y)"),
        ("e(x, y)", "K q(y)", "~K (exists z. r(z))"),
    ];
    for (a, b, c) in triples {
        let left = parse(&format!("({a} & {b}) & {c}")).unwrap();
        let right = parse(&format!("{a} & ({b} & {c})")).unwrap();
        assert!(is_safe(&left), "left-assoc: {left}");
        assert!(is_safe(&right), "Lemma 5.1: {right}");
    }
}

#[test]
fn example_53_admissibility_of_section1() {
    let admissible = [
        "Teach(Mary, CS)",
        "K Teach(Mary, CS)",
        "K ~Teach(Mary, CS)",
        "exists x. K Teach(John, x)",
        "exists x. K Teach(x, CS)",
        "K (exists x. Teach(x, CS))",
        "exists x. Teach(x, Psych)",
        "exists x. K Teach(x, Psych)",
        "exists x. Teach(x, Psych) & ~Teach(x, CS)",
    ];
    for src in admissible {
        assert!(
            is_admissible(&parse(src).unwrap()),
            "expected admissible: {src}"
        );
    }
    // The last §1 query and the extra Example 5.3 formula are not.
    assert!(matches!(
        admissibility(&parse("exists x. Teach(x, Psych) & ~K Teach(x, CS)").unwrap()),
        Admissibility::BadExistentialScope(_)
    ));
    assert!(!is_admissible(
        &parse("exists x. ~K Teach(x, CS) & K Teach(x, Psych)").unwrap()
    ));
}

#[test]
fn example_55_pair() {
    assert!(is_admissible(&parse("p(x) & K q(x)").unwrap()));
    assert!(!is_admissible(&parse("exists x. p(x) & K q(x)").unwrap()));
}

#[test]
fn result_51_subjective_k1() {
    // For subjective K₁ sentences: admissible iff safe with distinct
    // quantified variables. Exercise both directions.
    let good = parse("~(exists x. K emp(x) & ~K (exists y. ss(x, y)))").unwrap();
    assert!(is_subjective(&good) && is_k1(&good));
    assert!(is_safe(&good));
    assert!(is_admissible(&good));

    // Safe but with a duplicated quantified variable (the §5.3
    // cautionary example): not admissible.
    let dup = parse("exists x. K (exists x. p(x)) & K q(x)").unwrap();
    assert!(is_subjective(&dup) && is_k1(&dup));
    assert!(matches!(
        admissibility(&dup),
        Admissibility::VariableCollision(_)
    ));

    // Unsafe subjective K₁: not admissible.
    let unsafe_s = parse("exists x. ~K p(x)").unwrap();
    assert!(is_subjective(&unsafe_s) && is_k1(&unsafe_s));
    assert!(!is_admissible(&unsafe_s));
}

#[test]
fn normal_queries_admissible_iff_safe() {
    // §5.2, systematically: for normal queries, admissible ⇔ safe.
    let cases = [
        "p(x) & K q(x)",
        "p(x) & ~K q(x)",
        "~K q(x) & p(x)",
        "K p(x) & K q(y)",
        "p(x, y) & K q(x) & ~K r(y)",
        "~p(a)",
        "K ~p(x)",
        "~K ~p(a)",
    ];
    for src in cases {
        let w = parse(src).unwrap();
        assert!(is_normal_query(&w), "{src} is a normal query");
        assert_eq!(
            is_admissible(&w),
            is_safe(&w),
            "normal query {src}: admissible iff safe"
        );
    }
}

#[test]
fn subjective_formulas_classified() {
    // Definition 5.2's positive and negative space.
    for s in [
        "x = y",
        "K p(x)",
        "K (exists y. ss(x, y))",
        "~K male(x) & ~K female(x)",
        "exists x. K Teach(x, CS)",
        "K ~K p",
    ] {
        assert!(is_subjective(&parse(s).unwrap()), "{s} subjective");
    }
    for s in ["p(x)", "Teach(x, Psych) & ~K Teach(x, CS)", "K p & q"] {
        assert!(!is_subjective(&parse(s).unwrap()), "{s} not subjective");
    }
}

#[test]
fn lemma_52_subjective_always_decided() {
    // Σ ⊨ π or Σ ⊨ ¬π for subjective π — via the full evaluator, against
    // several databases.
    let dbs = ["p | q", "p(a)\nexists x. q(x)", ""];
    let queries = ["K (p | q)", "~K p", "K p | K q"];
    for db_src in dbs {
        let db = EpistemicDb::from_text(db_src).unwrap();
        for q in queries {
            let w = parse(q).unwrap();
            assert!(is_subjective(&w));
            assert_ne!(
                db.ask(&w),
                Answer::Unknown,
                "subjective {q} undecided against {db_src:?}"
            );
        }
    }
}
