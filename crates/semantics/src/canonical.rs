//! The canonical model `S(Σ)` of Lemma 6.2.
//!
//! Every elementary theory `Σ` (Definition 6.3) has a model whose atoms
//! mention only parameters occurring in `Σ`. The construction: for
//! positive existential sentences, collect the atoms of *every* disjunct,
//! instantiating existentials with a parameter already mentioned in `Σ`;
//! then close under the rules, firing a rule whenever all its body atoms
//! are present and adding its head's atoms the same way.
//!
//! The resulting set `S(Σ)` is finite (only `Σ`'s parameters and
//! predicates appear) and is a model of `Σ` — which is what powers the
//! finiteness Lemma 6.3 and through it the completeness Theorem 6.2.

use crate::theory::{facts, is_elementary, rules};
use epilog_storage::{ConjunctionPlan, Database, PlanStats, SlotMap};
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{Param, Term, Theory, Var};
use std::collections::HashMap;

/// Build the canonical model `S(Σ)` of an elementary theory.
///
/// Returns `None` when the theory is not elementary (the construction is
/// only defined — and only correct — for elementary theories).
pub fn canonical_model(theory: &Theory) -> Option<Database> {
    if !is_elementary(theory) {
        return None;
    }
    // Lemma 6.2 assumes wlog that Σ mentions a parameter; if it does not,
    // any fixed parameter works as the existential witness.
    let witness = theory
        .active_domain()
        .first()
        .copied()
        .unwrap_or_else(|| Param::new("c0"));

    let mut model = Database::new();
    // S₀: the atoms of every positive existential fact.
    for fact in facts(theory) {
        for atom in pe_atoms(fact, witness, &HashMap::new()) {
            model.insert(&atom);
        }
    }
    // Sᵢ₊₁: close under rules. Each rule body is compiled once into a
    // join plan over the model's indexed storage — costed against S₀ —
    // and re-run per round.
    let rules = rules(theory);
    let compiled: Vec<(ConjunctionPlan, SlotMap, &Formula)> = {
        let stats = PlanStats::new(&model);
        rules
            .iter()
            .map(|rule| {
                let mut slots = SlotMap::new();
                let plan = ConjunctionPlan::compile(&rule.body, &mut slots, None, &stats);
                (plan, slots, &rule.head)
            })
            .collect()
    };
    loop {
        let mut added = false;
        for (plan, slots, head) in &compiled {
            let mut env = vec![None; slots.len()];
            let mut pending: Vec<Atom> = Vec::new();
            plan.for_each_match(&model, None, &mut env, &mut |env| {
                let binding: HashMap<Var, Param> = slots
                    .vars()
                    .iter()
                    .zip(env)
                    .filter_map(|(v, p)| p.map(|p| (*v, p)))
                    .collect();
                pending.extend(pe_atoms(head, witness, &binding));
            });
            for atom in pending {
                added |= model.insert(&atom);
            }
        }
        if !added {
            return Some(model);
        }
    }
}

/// `M_Σ(w)` of Lemma 6.2: the atoms obtained from a positive existential
/// formula by taking *both* branches of every `∨`/`∧` and instantiating
/// every `∃` with the designated witness parameter.
fn pe_atoms(w: &Formula, witness: Param, env: &HashMap<Var, Param>) -> Vec<Atom> {
    match w {
        Formula::Atom(a) => {
            let terms: Vec<Term> = a
                .terms
                .iter()
                .map(|t| match t {
                    Term::Param(p) => Term::Param(*p),
                    Term::Var(v) => Term::Param(*env.get(v).unwrap_or_else(|| {
                        panic!("unbound variable {v} in positive existential formula")
                    })),
                })
                .collect();
            vec![Atom::new(a.pred, terms)]
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            let mut out = pe_atoms(a, witness, env);
            out.extend(pe_atoms(b, witness, env));
            out
        }
        Formula::Exists(x, body) => {
            let mut env2 = env.clone();
            env2.insert(*x, witness);
            pe_atoms(body, witness, &env2)
        }
        other => panic!("not positive existential: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::holds_in_world;

    fn check_is_model(theory: &Theory) {
        let model = canonical_model(theory).expect("theory is elementary");
        let universe: Vec<Param> = {
            let mut u = theory.active_domain();
            if u.is_empty() {
                u.push(Param::new("c0"));
            }
            u
        };
        for s in theory.sentences() {
            assert!(
                holds_in_world(s, &model, &universe),
                "S(Σ) must satisfy `{s}`; S(Σ) = {:?}",
                model.atoms().map(|a| a.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn teach_db_canonical_model() {
        let t = Theory::from_text(
            "Teach(John, Math)
             exists x. Teach(x, CS)
             Teach(Mary, Psych) | Teach(Sue, Psych)",
        )
        .unwrap();
        let m = canonical_model(&t).unwrap();
        check_is_model(&t);
        // Both disjuncts present, existential witnessed by a Σ-parameter.
        assert!(m.len() >= 4);
        let params = m.params();
        for p in &params {
            assert!(
                !p.is_fresh(),
                "S(Σ) mentions only parameters of Σ (Lemma 6.2)"
            );
        }
    }

    #[test]
    fn rules_fire_transitively() {
        let t = Theory::from_text(
            "p(a)
             forall x. p(x) -> q(x)
             forall x. q(x) -> r(x)",
        )
        .unwrap();
        let m = canonical_model(&t).unwrap();
        check_is_model(&t);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn existential_heads_reuse_parameters() {
        let t = Theory::from_text(
            "node(a)
             forall x. node(x) -> exists y. edge(x, y)",
        )
        .unwrap();
        let m = canonical_model(&t).unwrap();
        check_is_model(&t);
        // The head's witness is a parameter of Σ, so the chase terminates
        // even for rules that would diverge under fresh-null chasing.
        assert!(m.len() >= 2);
    }

    #[test]
    fn recursive_rules_terminate() {
        let t = Theory::from_text(
            "e(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. t(x, y) & e(y, z) -> t(x, z)",
        )
        .unwrap();
        let m = canonical_model(&t).unwrap();
        check_is_model(&t);
        // t(a,b), t(b,c), t(a,c) and the two e-atoms.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn non_elementary_rejected() {
        let t = Theory::from_text("~p(a)").unwrap();
        assert!(canonical_model(&t).is_none());
    }

    #[test]
    fn parameterless_theory_gets_default_witness() {
        let t = Theory::from_text("exists x. p(x)").unwrap();
        let m = canonical_model(&t).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn disjunctive_facts_take_both_branches() {
        let t = Theory::from_text("p(a) | q(b)").unwrap();
        let m = canonical_model(&t).unwrap();
        check_is_model(&t);
        assert_eq!(
            m.len(),
            2,
            "the construction takes the union of both disjuncts"
        );
    }
}
