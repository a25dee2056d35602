//! E1 — the Section 1 query table, reproduced exactly.
//!
//! Every query of the paper's introduction, with the paper's stated
//! answer, evaluated through the Levesque-style `ask` reducer; admissible
//! queries are additionally cross-checked against the `demo` evaluator,
//! and the propositional examples against the brute-force semantic
//! oracle.

use epilog::core::ask::certain;
use epilog::prelude::*;
use epilog::semantics::ModelSet;
use epilog::syntax::Pred;

/// `ask` as Definition 2.1 spells it: `q` and `¬q` each reduced and
/// decided on its own. `ask` itself reduces once.
fn ask_in_two_passes(prover: &Prover, q: &Formula) -> Answer {
    Answer::from_entailments(
        certain(prover, q),
        certain(prover, &Formula::not(q.clone())),
    )
}

fn teach_db() -> EpistemicDb {
    EpistemicDb::from_text(
        "Teach(John, Math)
         exists x. Teach(x, CS)
         Teach(Mary, Psych) | Teach(Sue, Psych)",
    )
    .unwrap()
}

#[test]
fn p_or_q_table() {
    let db = EpistemicDb::from_text("p | q").unwrap();
    let oracle = ModelSet::models(
        db.theory(),
        &[Param::new("c")],
        &[Pred::new("p", 0), Pred::new("q", 0)],
    );
    let table = [
        ("p", Answer::Unknown),
        ("K p", Answer::No),
        ("K p | K ~p", Answer::No),
        ("K (p | q) & ~K p", Answer::Yes),
    ];
    for (q, expected) in table {
        let w = parse(q).unwrap();
        assert_eq!(db.ask(&w), expected, "ask({q})");
        assert_eq!(ask_in_two_passes(db.prover(), &w), expected, "{q}");
        assert_eq!(oracle.answer(&w), expected, "oracle({q})");
    }
    let known_disjunction = parse("K (p | q) & ~K p").unwrap();
    assert_eq!(
        demo_sentence(db.prover(), &known_disjunction).unwrap(),
        DemoOutcome::Succeeds
    );
}

#[test]
fn teach_table() {
    let db = teach_db();
    let table = [
        ("Teach(Mary, CS)", Answer::Unknown),
        ("K Teach(Mary, CS)", Answer::No),
        ("K ~Teach(Mary, CS)", Answer::No),
        ("exists x. K Teach(John, x)", Answer::Yes),
        ("exists x. K Teach(x, CS)", Answer::No),
        ("K (exists x. Teach(x, CS))", Answer::Yes),
        ("exists x. Teach(x, Psych)", Answer::Yes),
        ("exists x. K Teach(x, Psych)", Answer::No),
        ("exists x. Teach(x, Psych) & ~Teach(x, CS)", Answer::Unknown),
        ("exists x. Teach(x, Psych) & ~K Teach(x, CS)", Answer::Yes),
    ];
    for (q, expected) in table {
        let w = parse(q).unwrap();
        assert_eq!(db.ask(&w), expected, "ask({q})");
        assert_eq!(ask_in_two_passes(db.prover(), &w), expected, "{q}");
    }
}

#[test]
fn teach_table_demo_agreement() {
    // Example 5.3: all but the last §1 query are admissible; on those,
    // demo's success/failure must match ask's yes/not-yes.
    let db = teach_db();
    let queries = [
        "K Teach(Mary, CS)",
        "K ~Teach(Mary, CS)",
        "exists x. K Teach(John, x)",
        "exists x. K Teach(x, CS)",
        "K (exists x. Teach(x, CS))",
        "exists x. Teach(x, Psych)",
        "exists x. K Teach(x, Psych)",
        "exists x. Teach(x, Psych) & ~Teach(x, CS)",
    ];
    for q in queries {
        let w = parse(q).unwrap();
        assert!(is_admissible(&w), "{q} should be admissible");
        let outcome = demo_sentence(db.prover(), &w).unwrap();
        assert_eq!(
            outcome == DemoOutcome::Succeeds,
            db.ask(&w) == Answer::Yes,
            "demo vs ask on {q}"
        );
    }
    // The last query is not admissible — demo refuses, ask answers.
    let last = parse("exists x. Teach(x, Psych) & ~K Teach(x, CS)").unwrap();
    assert!(!is_admissible(&last));
    assert!(db.demo(&last).is_err());
    assert_eq!(db.ask(&last), Answer::Yes);
}

#[test]
fn mary_or_sue_answer_shape() {
    // "yes, Mary or Sue": the sentence is certain but neither binding is.
    let db = teach_db();
    assert_eq!(
        db.ask(&parse("exists x. Teach(x, Psych)").unwrap()),
        Answer::Yes
    );
    assert!(db.answers(&parse("Teach(x, Psych)").unwrap()).is_empty());
    assert_eq!(
        db.ask(&parse("Teach(Mary, Psych) | Teach(Sue, Psych)").unwrap()),
        Answer::Yes
    );
    assert_eq!(
        db.ask(&parse("Teach(Mary, Psych)").unwrap()),
        Answer::Unknown
    );
    assert_eq!(
        db.ask(&parse("Teach(Sue, Psych)").unwrap()),
        Answer::Unknown
    );
}

#[test]
fn john_math_is_the_only_known_answer() {
    let db = teach_db();
    let answers = db.demo_all(&parse("K Teach(John, x)").unwrap()).unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0][0].name(), "Math");
    // And through the non-demo path as well.
    let answers = db.answers(&parse("K Teach(John, x)").unwrap());
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0][0].name(), "Math");
}
