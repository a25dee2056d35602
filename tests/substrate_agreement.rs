//! Cross-substrate validation: on definite (Datalog-expressible)
//! databases, independent engines must agree atom for atom —
//!
//! 1. the grounding+SAT theorem prover (`epilog-prover`),
//! 2. bottom-up semi-naive Datalog evaluation (`epilog-datalog`),
//! 3. the `demo` evaluator of §5 over the prover, open queries included.
//!
//! A definite program's least model is its minimal Herbrand model and
//! coincides with first-order entailment of atoms — so any divergence
//! is a bug in one of them. This is the repository's strongest internal
//! consistency check, run over randomized programs.

use epilog::datalog::Program;
use epilog::prelude::*;
use epilog::syntax::formula::Atom;
use proptest::prelude::*;

const PARAMS: [&str; 3] = ["a", "b", "c"];

fn random_definite_program() -> impl Strategy<Value = String> {
    let fact = (0..2usize, 0..PARAMS.len(), 0..PARAMS.len()).prop_map(|(pr, x, y)| {
        if pr == 0 {
            format!("e({}, {})", PARAMS[x], PARAMS[y])
        } else {
            format!("p({})", PARAMS[x])
        }
    });
    let rule = prop_oneof![
        Just("forall x, y. e(x, y) -> t(x, y)".to_string()),
        Just("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)".to_string()),
        Just("forall x. p(x) -> q(x)".to_string()),
        Just("forall x, y. e(x, y) & p(x) -> q(y)".to_string()),
        // A repeated head variable and a head constant.
        Just("forall x. p(x) -> self(x, x)".to_string()),
        Just("forall x. p(x) -> tag(x, c)".to_string()),
    ];
    (
        proptest::collection::vec(fact, 1..5),
        proptest::collection::vec(rule, 0..3),
    )
        .prop_map(|(facts, rules)| {
            let mut all = facts;
            all.extend(rules);
            all.join("\n")
        })
}

fn ground_atoms() -> Vec<Atom> {
    let mut out = Vec::new();
    for pred in ["p", "q"] {
        for a in PARAMS {
            if let Formula::Atom(at) = parse(&format!("{pred}({a})")).unwrap() {
                out.push(at);
            }
        }
    }
    for pred in ["e", "t", "self", "tag"] {
        for a in PARAMS {
            for b in PARAMS {
                if let Formula::Atom(at) = parse(&format!("{pred}({a}, {b})")).unwrap() {
                    out.push(at);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prover and bottom-up fixpoint on every ground atom; `demo` is held
    /// to the same model's rows in the next property.
    #[test]
    fn three_engines_agree(src in random_definite_program()) {
        // Engine 1: the FOPCE prover over the same sentences.
        let theory = Theory::from_text(&src).unwrap();
        let prover = Prover::new(theory);
        // Engine 2: bottom-up Datalog.
        let program = Program::from_text(&src).unwrap();
        let (model, _) = program.eval();

        for atom in ground_atoms() {
            let w = Formula::Atom(atom.clone());
            let by_prover = prover.entails(&w);
            let by_bottom_up = model.contains(&atom);
            prop_assert_eq!(
                by_prover, by_bottom_up,
                "prover vs bottom-up on {} over\n{}", atom, src
            );
        }
    }

    /// And the `demo` evaluator's open-query answers coincide with the
    /// bottom-up model's rows for each predicate.
    #[test]
    fn demo_matches_datalog_rows(src in random_definite_program()) {
        let theory = Theory::from_text(&src).unwrap();
        let prover = Prover::new(theory);
        let program = Program::from_text(&src).unwrap();
        let (model, _) = program.eval();

        for (pred, arity) in [("p", 1usize), ("q", 1), ("t", 2), ("self", 2), ("tag", 2)] {
            let q = if arity == 1 {
                parse(&format!("{pred}(x)")).unwrap()
            } else {
                parse(&format!("{pred}(x, y)")).unwrap()
            };
            let mut got = epilog::core::all_answers(&prover, &q).unwrap();
            got.sort();
            let pred_sym = epilog::syntax::Pred::new(pred, arity);
            let mut expect: Vec<Vec<Param>> = model
                .relation(pred_sym)
                .map(|r| r.iter().map(|t| t.to_vec()).collect())
                .unwrap_or_default();
            expect.sort();
            prop_assert_eq!(got, expect, "rows differ for {} over\n{}", pred, src);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential: demo vs the brute-force ModelSet oracle.
//
// The oracle enumerates every subset of the Herbrand base, so this block
// shrinks the vocabulary to two parameters (base = p/1 + q/1 + e/2 + t/2
// over {a, b} = 12 atoms → 4096 candidate worlds) to keep enumeration
// cheap, then checks `demo` agrees with certainty exactly.
// ---------------------------------------------------------------------------

const SMALL_PARAMS: [&str; 2] = ["a", "b"];

fn small_definite_program() -> impl Strategy<Value = String> {
    let fact = (0..2usize, 0..SMALL_PARAMS.len(), 0..SMALL_PARAMS.len()).prop_map(|(pr, x, y)| {
        if pr == 0 {
            format!("e({}, {})", SMALL_PARAMS[x], SMALL_PARAMS[y])
        } else {
            format!("p({})", SMALL_PARAMS[x])
        }
    });
    let rule = prop_oneof![
        Just("forall x, y. e(x, y) -> t(x, y)".to_string()),
        Just("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)".to_string()),
        Just("forall x. p(x) -> q(x)".to_string()),
        Just("forall x, y. e(x, y) & p(x) -> q(y)".to_string()),
    ];
    (
        proptest::collection::vec(fact, 1..4),
        proptest::collection::vec(rule, 0..3),
    )
        .prop_map(|(facts, rules)| {
            let mut all = facts;
            all.extend(rules);
            all.join("\n")
        })
}

fn small_oracle(theory: &Theory) -> epilog::semantics::ModelSet {
    let universe: Vec<Param> = SMALL_PARAMS.iter().map(|n| Param::new(n)).collect();
    let preds = vec![
        Pred::new("p", 1),
        Pred::new("q", 1),
        Pred::new("e", 2),
        Pred::new("t", 2),
    ];
    epilog::semantics::ModelSet::models(theory, &universe, &preds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On every ground atom of the vocabulary, `demo_sentence` succeeds
    /// iff the atom is certain under brute-force model enumeration.
    #[test]
    fn demo_matches_oracle_on_ground_atoms(src in small_definite_program()) {
        let theory = Theory::from_text(&src).unwrap();
        let prover = Prover::new(theory.clone());
        let oracle = small_oracle(&theory);

        for pred in ["p", "q"] {
            for a in SMALL_PARAMS {
                let w = parse(&format!("{pred}({a})")).unwrap();
                check_demo_vs_oracle(&prover, &oracle, &w, &src)?;
            }
        }
        for pred in ["e", "t"] {
            for a in SMALL_PARAMS {
                for b in SMALL_PARAMS {
                    let w = parse(&format!("{pred}({a}, {b})")).unwrap();
                    check_demo_vs_oracle(&prover, &oracle, &w, &src)?;
                }
            }
        }
    }

    /// Open queries: `all_answers` returns exactly the oracle's certain
    /// bindings for each predicate.
    #[test]
    fn all_answers_matches_oracle_bindings(src in small_definite_program()) {
        let theory = Theory::from_text(&src).unwrap();
        let prover = Prover::new(theory.clone());
        let oracle = small_oracle(&theory);

        for (pred, arity) in [("p", 1usize), ("q", 1), ("t", 2)] {
            let q = if arity == 1 {
                parse(&format!("{pred}(x)")).unwrap()
            } else {
                parse(&format!("{pred}(x, y)")).unwrap()
            };
            let mut got = epilog::core::all_answers(&prover, &q).unwrap();
            got.sort();
            let mut expect = oracle.answers(&q);
            expect.sort();
            prop_assert_eq!(got, expect, "bindings differ for {} over\n{}", pred, src);
        }
    }
}

/// Shared assertion for the differential test above, factored out so the
/// property body stays readable. Returns the `proptest` error type so
/// failures propagate with context.
fn check_demo_vs_oracle(
    prover: &Prover,
    oracle: &epilog::semantics::ModelSet,
    w: &Formula,
    src: &str,
) -> Result<(), TestCaseError> {
    let via_demo = matches!(
        epilog::core::demo_sentence(prover, w).unwrap(),
        epilog::core::DemoOutcome::Succeeds
    );
    let via_oracle = oracle.certain(w);
    if via_demo != via_oracle {
        return Err(TestCaseError::fail(format!(
            "demo={via_demo} but oracle={via_oracle} on {w} over\n{src}"
        )));
    }
    Ok(())
}
