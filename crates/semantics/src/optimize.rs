//! Reasoning *about* queries and constraints (§4).
//!
//! KFOPCE is itself the logic for reasoning about queries: if
//! `⊨_KFOPCE IC ≡ IC'` then the two constraints are interchangeable
//! (Corollary 4.1), and if `Σ` satisfies `IC` and
//! `IC ⊨_KFOPCE (∀x̄)(q ≡ q')` then `q` and `q'` have the same answers
//! (Corollary 4.2) — the formal foundation for semantic query
//! optimization.
//!
//! Validity `⊨_KFOPCE` is decided here by brute force over bounded
//! structures: all worlds over a finite Herbrand base, all nonempty sets
//! of worlds (the paper's semantics is weak S5/KD45: the evaluation world
//! need not belong to the set). Exponential³ — usable for the small
//! vocabularies of constraint schemas, which is exactly its role in the
//! paper.

use crate::oracle::{herbrand_base, ModelSet};
use epilog_storage::Database;
use epilog_syntax::{Formula, Param, Pred};

/// Decide `⊨_KFOPCE w` over all structures `(W, 𝒮)` built from the given
/// universe and predicates: `W` any world over the Herbrand base, `𝒮` any
/// *nonempty* set of such worlds.
///
/// # Panics
/// Panics if the Herbrand base exceeds 4 atoms (the structure space is
/// doubly exponential in the base).
pub fn valid_kfopce(w: &Formula, universe: &[Param], preds: &[Pred]) -> bool {
    let base = herbrand_base(universe, preds);
    assert!(
        base.len() <= 4,
        "validity checking over {} atoms is out of reach (≤ 4 supported)",
        base.len()
    );
    let n_worlds = 1usize << base.len();
    let worlds: Vec<Database> = (0..n_worlds)
        .map(|mask| {
            base.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone())
                .collect()
        })
        .collect();
    // Every nonempty subset of worlds as 𝒮.
    for set_mask in 1usize..(1 << n_worlds) {
        let s: Vec<Database> = worlds
            .iter()
            .enumerate()
            .filter(|(i, _)| set_mask & (1 << i) != 0)
            .map(|(_, w)| w.clone())
            .collect();
        let ms = ModelSet::from_worlds(s, universe.to_vec());
        for world in &worlds {
            if !ms.truth_in(w, world) {
                return false;
            }
        }
    }
    true
}

/// `α ⊨_KFOPCE β`, i.e. `⊨_KFOPCE α ⊃ β` (for sentences, by the deduction
/// property of this validity notion over fixed structures).
pub(crate) fn entails_kfopce(
    alpha: &Formula,
    beta: &Formula,
    universe: &[Param],
    preds: &[Pred],
) -> bool {
    valid_kfopce(
        &Formula::implies(alpha.clone(), beta.clone()),
        universe,
        preds,
    )
}

/// Corollary 4.2, as a checker: under constraint `ic`, do `q` and `q'`
/// (same free variables) have the same answers? Verifies
/// `ic ⊨_KFOPCE ∀x̄ (q ≡ q')` over the bounded structures.
pub fn equivalent_under(
    ic: &Formula,
    q: &Formula,
    q2: &Formula,
    universe: &[Param],
    preds: &[Pred],
) -> bool {
    assert_eq!(
        q.free_vars(),
        q2.free_vars(),
        "Corollary 4.2 needs matching free variables"
    );
    let mut body = Formula::iff(q.clone(), q2.clone());
    for v in q.free_vars().into_iter().rev() {
        body = Formula::forall(v, body);
    }
    entails_kfopce(ic, &body, universe, preds)
}

/// A concrete optimizer licensed by Corollary 4.2: drop conjuncts of a
/// conjunctive query that are redundant under the integrity constraint.
/// Each candidate elimination is verified by [`equivalent_under`]; the
/// returned query provably has the same answers on every database
/// satisfying `ic`.
pub fn eliminate_redundant_conjuncts(
    ic: &Formula,
    q: &Formula,
    universe: &[Param],
    preds: &[Pred],
) -> Formula {
    let mut conjuncts = flatten_and(q);
    let mut i = 0;
    while conjuncts.len() > 1 && i < conjuncts.len() {
        let mut candidate = conjuncts.clone();
        candidate.remove(i);
        let shorter = Formula::and_all(candidate.clone()).expect("len > 1 before removal");
        // The shorter query must keep the same free variables — dropping a
        // conjunct that binds a variable changes the answer arity.
        if shorter.free_vars() == q.free_vars()
            && equivalent_under(ic, q, &shorter, universe, preds)
        {
            conjuncts = candidate;
            i = 0; // restart: earlier conjuncts may now be removable
        } else {
            i += 1;
        }
    }
    Formula::and_all(conjuncts).expect("at least one conjunct remains")
}

fn flatten_and(w: &Formula) -> Vec<Formula> {
    match w {
        Formula::And(a, b) => {
            let mut out = flatten_and(a);
            out.extend(flatten_and(b));
            out
        }
        other => vec![other.clone()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::parse;

    fn props(names: &[&str]) -> Vec<Pred> {
        names.iter().map(|n| Pred::new(n, 0)).collect()
    }

    #[test]
    fn kd45_validities() {
        let u = [Param::new("c")];
        let pq = props(&["p", "q"]);
        // Distribution.
        assert!(valid_kfopce(
            &parse("K (p & q) <-> K p & K q").unwrap(),
            &u,
            &pq
        ));
        // Positive and negative introspection.
        assert!(valid_kfopce(&parse("K p -> K K p").unwrap(), &u, &pq));
        assert!(valid_kfopce(&parse("~K p -> K ~K p").unwrap(), &u, &pq));
        // D (seriality — 𝒮 nonempty): knowledge is consistent.
        assert!(valid_kfopce(&parse("K p -> ~K ~p").unwrap(), &u, &pq));
        // T fails: knowledge need not hold at the evaluation world (weak
        // S5, not S5 — the evaluation world may lie outside 𝒮).
        assert!(!valid_kfopce(&parse("K p -> p").unwrap(), &u, &pq));
        // K does not distribute over ∨.
        assert!(!valid_kfopce(
            &parse("K (p | q) -> K p | K q").unwrap(),
            &u,
            &pq
        ));
    }

    #[test]
    fn flatten_k45_transformation_is_sound() {
        // Every rewrite performed by flatten_k45 is KFOPCE-valid.
        let u = [Param::new("c")];
        let pq = props(&["p", "q"]);
        for src in ["K K p", "K ~K p", "K (p & q)", "K (K p & K q)"] {
            let w = parse(src).unwrap();
            let flat = crate::flatten_k45(&w);
            assert!(
                valid_kfopce(&Formula::iff(w.clone(), flat.clone()), &u, &pq),
                "flatten_k45({src}) = {flat} is not equivalent"
            );
        }
    }

    #[test]
    fn corollary_41_constraint_interchange() {
        // ∀-form and ¬∃-form of a constraint are KFOPCE-equivalent, so
        // either may be enforced (Corollary 4.1 + Example 5.4).
        let u = [Param::new("c")];
        let preds = vec![Pred::new("emp", 1), Pred::new("ok", 1)];
        let ic = parse("forall x. K emp(x) -> K ok(x)").unwrap();
        let rewritten = epilog_syntax::admissible_constraint(&ic);
        assert!(valid_kfopce(&Formula::iff(ic, rewritten), &u, &preds));
    }

    #[test]
    fn corollary_42_query_equivalence() {
        // IC: ∀x (K p(x) ⊃ K q(x)). Then Kp(x) ∧ Kq(x) ≡ Kp(x) under IC.
        let u = [Param::new("c")];
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ic = parse("forall x. K p(x) -> K q(x)").unwrap();
        let q = parse("K p(x) & K q(x)").unwrap();
        let q2 = parse("K p(x)").unwrap();
        assert!(equivalent_under(&ic, &q, &q2, &u, &preds));
        // Without the constraint they are not equivalent.
        let taut = parse("forall x. K p(x) -> K p(x)").unwrap();
        assert!(!equivalent_under(&taut, &q, &q2, &u, &preds));
    }

    #[test]
    fn conjunct_elimination() {
        let u = [Param::new("c")];
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ic = parse("forall x. K p(x) -> K q(x)").unwrap();
        let q = parse("K p(x) & K q(x)").unwrap();
        let optimized = eliminate_redundant_conjuncts(&ic, &q, &u, &preds);
        assert_eq!(optimized.to_string(), "K p(x)");
    }

    #[test]
    fn conjunct_elimination_preserves_answers() {
        use epilog_core::ask::{answers, certain};
        use epilog_prover::Prover;
        use epilog_syntax::Theory;
        let u = [Param::new("c")];
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let ic = parse("forall x. K p(x) -> K q(x)").unwrap();
        let q = parse("K p(x) & K q(x)").unwrap();
        let optimized = eliminate_redundant_conjuncts(&ic, &q, &u, &preds);
        // A database satisfying the constraint.
        let prover = Prover::new(Theory::from_text("p(a)\nq(a)\nq(b)").unwrap());
        assert!(certain(&prover, &ic));
        assert_eq!(answers(&prover, &q), answers(&prover, &optimized));
        let all = |w| epilog_core::all_answers(&prover, w).unwrap();
        assert_eq!(all(&q), all(&optimized));
    }

    #[test]
    fn theorem_41_transitivity() {
        // Σ ⊨ α and α ⊨_KFOPCE β imply Σ ⊨ β.
        use epilog_prover::Prover;
        use epilog_syntax::Theory;
        let u = [Param::new("c")];
        let pq = props(&["p", "q"]);
        let alpha = parse("K (p & q)").unwrap();
        let beta = parse("K p").unwrap();
        assert!(entails_kfopce(&alpha, &beta, &u, &pq));
        let prover = Prover::new(Theory::from_text("p & q").unwrap());
        assert!(epilog_core::ask::certain(&prover, &alpha));
        assert!(epilog_core::ask::certain(&prover, &beta));
    }

    #[test]
    fn irredundant_queries_untouched() {
        let u = [Param::new("c")];
        let preds = vec![Pred::new("p", 1), Pred::new("q", 1)];
        let taut = parse("forall x. K p(x) -> K p(x)").unwrap();
        let q = parse("K p(x) & K q(x)").unwrap();
        let out = eliminate_redundant_conjuncts(&taut, &q, &u, &preds);
        assert_eq!(out, q);
    }
}
