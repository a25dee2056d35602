//! Routing query answering through the bottom-up Datalog engine.
//!
//! The `demo`/`ask`/`incremental` consumers all bottom out in
//! [`Prover::entails`], and the overwhelmingly common goal while
//! enumerating answers is a **ground atom**. When the database happens to
//! be a *definite* program — ground facts plus negation-free Datalog rules,
//! the workhorse shape of deductive databases — those goals are decided
//! exactly by the program's least model: `Σ ⊨ p(c̄)` iff `p(c̄)` is in the
//! model. This module materializes that model once with the compiled
//! semi-naive engine and attaches it to the prover, so every downstream
//! ground-atom question becomes a tuple lookup instead of a SAT call, and
//! every open-atom enumeration (`prove(p(x̄), Σ)`) a selection on the
//! atom's relation instead of a walk of the active domain.

use epilog_datalog::Program;
use epilog_prover::Prover;
use epilog_storage::Database;
use epilog_syntax::Theory;

/// The theory as a definite Datalog program, when it parses as one:
/// every sentence a ground fact or a rule over atoms. (A negated body
/// literal is not a [`Program`] — classical entailment from it is no
/// least model — so such theories stay on the SAT path.)
pub fn definite_program(theory: &Theory) -> Option<Program> {
    Program::from_sentences(theory.sentences()).ok()
}

/// The least model of the theory, when it is a definite program, computed
/// by the compiled semi-naive engine.
pub fn definite_model(theory: &Theory) -> Option<Database> {
    Some(definite_program(theory)?.eval().0)
}

/// Build a prover for `theory`, attaching the least model as a
/// ground-atom fast path whenever the theory is a definite program.
pub fn prover_for(theory: Theory) -> Prover {
    prover_and_program(theory).0
}

/// [`prover_for`], also handing back the definite program the model was
/// computed from (`Some` exactly when a model is attached) so a caller
/// that keeps the program — [`crate::EpistemicDb`] — does not derive it
/// from the sentences a second time.
pub(crate) fn prover_and_program(theory: Theory) -> (Prover, Option<Program>) {
    match definite_program(&theory) {
        Some(program) => {
            let (model, _stats) = program.eval();
            (Prover::new(theory).with_atom_model(model), Some(program))
        }
        None => (Prover::new(theory), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    #[test]
    fn definite_theories_get_a_model() {
        let theory = Theory::from_text(
            "e(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let p = prover_for(theory);
        assert!(p.atom_model().is_some());
        assert!(p.entails(&parse("t(a, c)").unwrap()));
        assert!(!p.entails(&parse("t(c, a)").unwrap()));
        assert_eq!(p.sat_calls(), 0);
    }

    #[test]
    fn disjunctive_theories_stay_on_sat_path() {
        let theory = Theory::from_text("p(a) | q(a)").unwrap();
        let p = prover_for(theory);
        assert!(p.atom_model().is_none());
        assert!(p.entails(&parse("p(a) | q(a)").unwrap()));
    }

    #[test]
    fn negated_rule_bodies_stay_on_sat_path() {
        // Negation as failure would conclude r(a) from
        // {p(a), p(x) ∧ ¬q(x) → r(x)}, but Σ ⊭ r(a) classically — the
        // fast path must refuse.
        let theory = Theory::from_text("p(a)\nforall x. p(x) & ~q(x) -> r(x)").unwrap();
        let p = prover_for(theory);
        assert!(p.atom_model().is_none());
        assert!(!p.entails(&parse("r(a)").unwrap()));
    }

    #[test]
    fn fast_path_agrees_with_sat_on_definite_theories() {
        let src = "emp(Mary)
                   emp(Sue)
                   ss(Mary, n1)
                   forall x. emp(x) -> person(x)";
        let theory = Theory::from_text(src).unwrap();
        let routed = prover_for(theory.clone());
        let plain = Prover::new(theory);
        for q in [
            "person(Mary)",
            "person(Sue)",
            "person(n1)",
            "ss(Mary, n1)",
            "ss(Sue, n1)",
            "emp(n1)",
        ] {
            let w = parse(q).unwrap();
            assert_eq!(routed.entails(&w), plain.entails(&w), "divergence on {q}");
        }
    }
}
