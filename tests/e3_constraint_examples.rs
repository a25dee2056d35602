//! E3 — the constraint examples of §3 (Examples 3.1–3.5) and their
//! admissible rewrites (Example 5.4), enforced end to end.

use epilog::core::demo_sentence;
use epilog::prelude::*;
use epilog::syntax::admissible_constraint;

/// Check a constraint against a database three ways — semantic
/// (Definition 3.5 via `ask`), demo on the admissible rewrite, and the
/// registered-constraint API — and insist they agree.
fn verdict(db_src: &str, ic_src: &str) -> bool {
    let db = EpistemicDb::from_text(db_src).unwrap();
    let ic = parse(ic_src).unwrap();
    let semantic = db.ask(&ic) == Answer::Yes;
    let rewritten = admissible_constraint(&ic);
    assert!(
        admissibility(&rewritten).is_admissible(),
        "rewrite of {ic_src} must be admissible: {}",
        admissibility(&rewritten)
    );
    let via_demo = demo_sentence(db.prover(), &rewritten).unwrap() == DemoOutcome::Succeeds;
    assert_eq!(
        semantic, via_demo,
        "ask vs demo divergence on `{ic_src}` against `{db_src}`"
    );
    semantic
}

#[test]
fn example_31_male_female_exclusion() {
    let ic = "forall x. ~K (male(x) & female(x))";
    assert!(verdict("male(Sam)\nfemale(Sue)", ic));
    assert!(!verdict("male(Sam)\nfemale(Sam)", ic));
    // Disjunctive information does not violate it: knowing Sam-is-male-or
    // -female is not knowing the conjunction.
    assert!(verdict("male(Sam) | female(Sam)", ic));
}

#[test]
fn example_32_totality() {
    let ic = "forall x. K person(x) -> K male(x) | K female(x)";
    assert!(verdict("person(Sam)\nmale(Sam)", ic));
    assert!(!verdict("person(Sam)", ic));
    // The subtle case: disjunctive sex on file is NOT enough.
    assert!(!verdict("person(Sam)\nmale(Sam) | female(Sam)", ic));
}

#[test]
fn example_33_mother_typing() {
    let ic = "forall x, y. K mother(x, y) -> K (person(x) & female(x) & person(y))";
    assert!(verdict(
        "mother(Ann, Bob)\nperson(Ann)\nfemale(Ann)\nperson(Bob)",
        ic
    ));
    assert!(!verdict("mother(Ann, Bob)\nperson(Ann)\nfemale(Ann)", ic));
    assert!(verdict("", ic));
}

#[test]
fn example_34_weak_ss_constraint() {
    // The number need only be *known to exist*.
    let ic = "forall x. K emp(x) -> K (exists y. ss(x, y))";
    assert!(verdict("emp(Mary)\nexists y. ss(Mary, y)", ic));
    assert!(verdict("emp(Mary)\nss(Mary, n1)", ic));
    assert!(!verdict("emp(Mary)", ic));
}

#[test]
fn example_35_functional_dependency() {
    let ic = "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z";
    assert!(verdict("ss(Mary, n1)\nss(Sue, n2)", ic));
    assert!(!verdict("ss(Mary, n1)\nss(Mary, n2)", ic));
    assert!(verdict("", ic));
}

#[test]
fn example_54_rewrites_match_paper() {
    // The exact rewritten forms listed in Example 5.4.
    let cases = [
        (
            "forall x. K emp(x) -> exists y. K ss(x, y)",
            "~(exists x. K emp(x) & ~(exists y. K ss(x, y)))",
        ),
        (
            "forall x. ~K (male(x) & female(x))",
            "~(exists x. K (male(x) & female(x)))",
        ),
        (
            "forall x. K person(x) -> K male(x) | K female(x)",
            "~(exists x. K person(x) & (~K male(x) & ~K female(x)))",
        ),
        (
            "forall x. K emp(x) -> K (exists y. ss(x, y))",
            "~(exists x. K emp(x) & ~K (exists y. ss(x, y)))",
        ),
        (
            "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
            "~(exists x. exists y. exists z. K ss(x, y) & K ss(x, z) & ~K y = z)",
        ),
    ];
    for (natural, expected) in cases {
        let got = admissible_constraint(&parse(natural).unwrap());
        assert_eq!(got.to_string(), expected, "rewrite of {natural}");
        assert!(admissibility(&got).is_admissible());
    }
}

#[test]
fn constraints_are_subjective_k1() {
    // §5.3: integrity constraints are naturally subjective K₁ sentences.
    use epilog::semantics::is_k1;
    use epilog::syntax::is_subjective;
    for ic in [
        "forall x. ~K (male(x) & female(x))",
        "forall x. K person(x) -> K male(x) | K female(x)",
        "forall x, y. K mother(x, y) -> K (person(x) & female(x) & person(y))",
        "forall x. K emp(x) -> K (exists y. ss(x, y))",
        "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
    ] {
        let w = parse(ic).unwrap();
        assert!(is_subjective(&w), "{ic} subjective");
        assert!(is_k1(&w), "{ic} K1");
        assert!(w.is_sentence());
    }
}

#[test]
fn corollary_41_rewrite_equivalence_spotcheck() {
    // The rewrite is KFOPCE-equivalent (checked over bounded structures),
    // so by Corollary 4.1 either form may be enforced.
    use epilog::semantics::valid_kfopce;
    use epilog::syntax::Pred;
    let ic = parse("forall x. ~K (male(x) & female(x))").unwrap();
    let rw = admissible_constraint(&ic);
    assert!(valid_kfopce(
        &Formula::iff(ic, rw),
        &[Param::new("c")],
        &[Pred::new("male", 1), Pred::new("female", 1)],
    ));
}
