//! Derivation provenance: minimal-height proof trees, derived when asked.
//!
//! [`Program::why`](crate::Program::why) runs the ordinary semi-naive
//! fixpoint of a definite program and notes the round in which each
//! derived tuple first appeared (extensional facts are round 0). Round *k*
//! adds exactly the tuples whose least derivation height is *k*. A tuple
//! first seen in round *k* is proved by binding the head of each rule plan
//! with its predicate ([`RulePlan::bind_head`]) and running that plan's
//! support query ([`RulePlan::support`], the re-derivation probe of DRed's
//! phase 3) against the model: the first match whose premises all
//! appeared before round *k* becomes the node, and each premise is proved
//! the same way. Every premise sits strictly lower, so the walk ends at
//! extensional facts and the tree's height is *k*, the least possible.
//!
//! Provenance is a query, not state — the way `demo` derives what the
//! database knows from `Σ` when it is asked (§5). No other fixpoint
//! records anything and nothing is kept between calls. The walk and every
//! [`ProofTree`] method run on explicit stacks, so a proof as deep as a
//! long chain costs heap, not call stack.

use crate::engine::{fix_seminaive, EvalStats};
use crate::plan::RulePlan;
use epilog_storage::{Database, JoinStep};
use epilog_syntax::formula::Atom;
use epilog_syntax::{Param, Pred, Term};
use std::collections::HashMap;

impl crate::Program {
    /// Explain ground atoms of this program's least model: one
    /// semi-naive fixpoint, however many atoms are asked, and a
    /// minimal-height [`ProofTree`] per atom read off the rounds it ran —
    /// `None` for an atom that is not ground or not in the model (the
    /// *why-not* answer: nothing derives it).
    pub fn why(&self, atoms: &[Atom]) -> Vec<Option<ProofTree>> {
        // One plan per rule, in order.
        let plans: Vec<RulePlan> = self
            .rules
            .iter()
            .map(|r| RulePlan::compile(r, &self.edb))
            .collect();
        // Each round's delta, kept by sharing its runs, so the round map
        // borrows its rows rather than copying them.
        let mut deltas: Vec<Database> = Vec::new();
        let model = fix_seminaive(
            &plans,
            self.edb.clone(),
            &mut EvalStats::default(),
            |delta| deltas.push(delta.clone()),
        );
        let mut rounds: HashMap<Pred, HashMap<&[Param], u32>> = HashMap::new();
        for (round, delta) in (1..).zip(&deltas) {
            for (pred, rel) in delta.relations() {
                let first_seen = rounds.entry(pred).or_default();
                first_seen.extend(rel.iter().map(|t| (t, round)));
            }
        }
        let walk = Walk {
            plans: &plans,
            edb: &self.edb,
            model: &model,
            rounds,
        };
        atoms
            .iter()
            .map(|a| walk.prove(a.pred, &params_of(a)?))
            .collect()
    }
}

/// A rule instance's ground premises, in its support plan's step order.
type Premises = Vec<(Pred, Box<[Param]>)>;

/// What a proof is read off: the plans, the least model, and the round
/// each derived tuple first appeared in.
struct Walk<'a> {
    plans: &'a [RulePlan],
    edb: &'a Database,
    model: &'a Database,
    rounds: HashMap<Pred, HashMap<&'a [Param], u32>>,
}

impl Walk<'_> {
    /// The round `(pred, tuple)` first appeared in: 0 for an extensional
    /// fact, `None` outside the model.
    fn round(&self, pred: Pred, tuple: &[Param]) -> Option<u32> {
        if self.edb.contains_tuple(pred, tuple) {
            return Some(0);
        }
        self.rounds.get(&pred)?.get(tuple).copied()
    }

    /// A minimal-height proof of `(pred, tuple)`, built bottom-up from an
    /// explicit stack of tasks; `None` outside the model.
    fn prove(&self, pred: Pred, tuple: &[Param]) -> Option<ProofTree> {
        enum Task {
            Prove(Pred, Box<[Param]>),
            /// Wrap the last `premises` finished trees under `atom`.
            Build {
                atom: Atom,
                rule_idx: usize,
                premises: usize,
            },
        }
        let mut tasks = vec![Task::Prove(pred, tuple.into())];
        let mut done: Vec<ProofTree> = Vec::new();
        while let Some(task) = tasks.pop() {
            match task {
                Task::Prove(pred, tuple) => {
                    let atom = atom_of(pred, &tuple);
                    let round = self.round(pred, &tuple)?;
                    if round == 0 {
                        done.push(ProofTree::Fact { atom });
                        continue;
                    }
                    let (rule_idx, premises) = self.support_below(pred, &tuple, round)?;
                    tasks.push(Task::Build {
                        atom,
                        rule_idx,
                        premises: premises.len(),
                    });
                    // Reversed, so the first premise is proved first.
                    let premises = premises.into_iter().rev();
                    tasks.extend(premises.map(|(p, t)| Task::Prove(p, t)));
                }
                Task::Build {
                    atom,
                    rule_idx,
                    premises,
                } => {
                    let premises = done.split_off(done.len() - premises);
                    done.push(ProofTree::Derived {
                        atom,
                        rule_idx,
                        premises,
                    });
                }
            }
        }
        done.pop()
    }

    /// The first rule instance, in rule order and then support-plan match
    /// order, that derives `(pred, tuple)` from premises which all
    /// appeared before `round`: its rule index and ground premises, in the
    /// support plan's step order. The round that first derived the tuple
    /// fired such an instance, so one exists for every model tuple.
    fn support_below(&self, pred: Pred, tuple: &[Param], round: u32) -> Option<(usize, Premises)> {
        self.plans.iter().enumerate().find_map(|(rule_idx, plan)| {
            let mut env = vec![None; plan.slots.len()];
            if plan.head.pred != pred || !plan.bind_head(tuple, &mut env) {
                return None;
            }
            let steps = plan.support.steps();
            let mut found = None;
            plan.support
                .for_each_match(self.model, None, &mut env, &mut |env| {
                    let lower = |s: &JoinStep| {
                        let t = s.template.ground(env);
                        self.round(s.template.pred, &t).is_some_and(|r| r < round)
                    };
                    if found.is_none() && steps.iter().all(lower) {
                        let premises = steps
                            .iter()
                            .map(|s| (s.template.pred, s.template.ground(env)));
                        found = Some(premises.collect());
                    }
                });
            found.map(|premises| (rule_idx, premises))
        })
    }
}

/// A reconstructed derivation: leaves are extensional facts, internal
/// nodes are rule firings over their premises.
///
/// [`ProofTree::size`], [`ProofTree::height`], [`ProofTree::render`],
/// [`ProofTree::replays`] and dropping a tree all walk it from an explicit
/// stack, whatever its height.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofTree {
    /// An extensional fact — a leaf.
    Fact {
        /// The ground atom.
        atom: Atom,
    },
    /// A derived tuple: the rule (program rule order) fired on the ground
    /// premises below.
    Derived {
        /// The ground head atom.
        atom: Atom,
        /// Index of the firing rule, in program rule order.
        rule_idx: usize,
        /// Proofs of the ground body atoms.
        premises: Vec<ProofTree>,
    },
}

impl ProofTree {
    /// The ground atom this node proves.
    pub fn atom(&self) -> &Atom {
        match self {
            ProofTree::Fact { atom } | ProofTree::Derived { atom, .. } => atom,
        }
    }

    /// Every node with its depth, root first and premises in order.
    fn nodes(&self) -> impl Iterator<Item = (usize, &ProofTree)> + '_ {
        let mut stack = vec![(0, self)];
        std::iter::from_fn(move || {
            let (depth, node) = stack.pop()?;
            if let ProofTree::Derived { premises, .. } = node {
                stack.extend(premises.iter().rev().map(|p| (depth + 1, p)));
            }
            Some((depth, node))
        })
    }

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        self.nodes().count()
    }

    /// Height of the tree: 0 for a leaf fact, one more than its highest
    /// premise for a derived node.
    pub fn height(&self) -> usize {
        self.nodes()
            .map(|(depth, node)| depth + usize::from(matches!(node, ProofTree::Derived { .. })))
            .max()
            .unwrap_or(0)
    }

    /// Replay the proof against a program: every leaf must be an
    /// extensional fact, and every internal node's rule must actually
    /// derive the node's atom when fired over exactly the node's
    /// premises. The acceptance check of the provenance property suite.
    pub fn replays(&self, prog: &crate::Program) -> bool {
        self.nodes().all(|(_, node)| match node {
            ProofTree::Fact { atom } => prog.edb.contains(atom),
            ProofTree::Derived {
                atom,
                rule_idx,
                premises,
            } => fires_over(prog, *rule_idx, atom, premises),
        })
    }

    /// Render the tree as indented lines, root first — the server's
    /// `why` reply body and the example's display format.
    pub fn render(&self) -> Vec<String> {
        self.nodes()
            .map(|(depth, node)| {
                let pad = "  ".repeat(depth);
                match node {
                    ProofTree::Fact { atom } => format!("{pad}{atom} (fact)"),
                    ProofTree::Derived { atom, rule_idx, .. } => {
                        format!("{pad}{atom} <= rule {rule_idx}")
                    }
                }
            })
            .collect()
    }
}

impl Drop for ProofTree {
    /// Frees the premises from an explicit stack: the derived drop would
    /// recurse once per level.
    fn drop(&mut self) {
        let ProofTree::Derived { premises, .. } = self else {
            return;
        };
        let mut stack = std::mem::take(premises);
        while let Some(mut node) = stack.pop() {
            if let ProofTree::Derived { premises, .. } = &mut node {
                stack.append(premises);
            }
        }
    }
}

/// Whether rule `rule_idx` of `prog`, fired over exactly `premises`,
/// derives `atom`.
fn fires_over(prog: &crate::Program, rule_idx: usize, atom: &Atom, premises: &[ProofTree]) -> bool {
    let Some(rule) = prog.rules.get(rule_idx) else {
        return false;
    };
    let mut world = Database::new();
    for p in premises {
        world.insert(p.atom());
    }
    let plan = RulePlan::compile(rule, &world);
    let Some(target) = params_of(atom).filter(|_| plan.head.pred == atom.pred) else {
        return false;
    };
    let mut derived = false;
    let mut env = vec![None; plan.slots.len()];
    plan.full
        .for_each_match(&world, None, &mut env, &mut |env| {
            derived |= plan.head.ground(env) == target;
        });
    derived
}

/// Rebuild a ground [`Atom`] from a predicate and stored tuple.
fn atom_of(pred: Pred, tuple: &[Param]) -> Atom {
    Atom::new(pred, tuple.iter().map(|&p| Term::Param(p)).collect())
}

/// The stored row of a ground atom, or `None` if any argument is a
/// variable.
pub(crate) fn params_of(atom: &Atom) -> Option<Box<[Param]>> {
    atom.terms.iter().map(Term::as_param).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fire_full_plans, Heads};
    use crate::program::Program;
    use epilog_syntax::parse;

    fn atom(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    #[test]
    fn why_reaches_edb_leaves_and_replays() {
        let prog = Program::from_text(
            "e(a, b)
             e(b, c)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
        )
        .unwrap();
        let proofs = prog.why(&[atom("t(a, c)"), atom("e(a, b)"), atom("t(c, a)")]);
        let [tree, leaf, unknown] = &proofs[..] else {
            panic!("one answer per atom asked, got {proofs:?}");
        };
        let tree = tree.as_ref().expect("provable");
        assert_eq!(tree.height(), 2);
        assert!(tree.replays(&prog));
        // Extensional atoms are leaves.
        assert!(matches!(leaf, Some(ProofTree::Fact { .. })));
        // Atoms outside the model have no proof.
        assert!(unknown.is_none());
    }

    /// Every model atom with the round naive evaluation first derives it
    /// in (extensional facts: 0), stepping `fire_full_plans` — the naive
    /// reference's own round — one round at a time. By definition that
    /// round is the atom's least derivation height.
    fn naive_rounds(prog: &Program) -> Vec<(Atom, usize)> {
        let plans: Vec<RulePlan> = prog
            .rules
            .iter()
            .map(|r| RulePlan::compile(r, &prog.edb))
            .collect();
        let mut db = prog.edb.clone();
        let mut first: Vec<(Atom, usize)> = db.atoms().map(|a| (a, 0)).collect();
        let mut round = 0;
        loop {
            round += 1;
            let mut next = Heads::default();
            fire_full_plans(&plans, &db, &mut next, &mut EvalStats::default());
            let mut fresh = Vec::new();
            for (pred, batch) in next.into_batches() {
                let added = db.relation_mut(pred).insert_ascending(batch);
                fresh.extend(added.iter().map(|t| (atom_of(pred, t), round)));
            }
            if fresh.is_empty() {
                return first;
            }
            first.extend(fresh);
        }
    }

    /// Every model tuple's proof replays, and its height is the round in
    /// which naive evaluation first derives the tuple.
    fn assert_minimal_proofs(src: &str) {
        let prog = Program::from_text(src).unwrap();
        let rounds = naive_rounds(&prog);
        assert_eq!(rounds.len(), prog.eval().0.len(), "in:\n{src}");
        let atoms: Vec<Atom> = rounds.iter().map(|(a, _)| a.clone()).collect();
        for ((atom, round), proof) in rounds.iter().zip(prog.why(&atoms)) {
            let proof = proof.unwrap_or_else(|| panic!("no proof for {atom} in:\n{src}"));
            assert_eq!(proof.atom(), atom);
            assert!(proof.replays(&prog), "{atom} does not replay in:\n{src}");
            assert_eq!(proof.height(), *round, "height of {atom} in:\n{src}");
        }
    }

    #[test]
    fn every_proof_replays_at_its_naive_round() {
        let chain: String = (0..8).map(|i| format!("e(n{i}, n{})\n", i + 1)).collect();
        assert_minimal_proofs(&format!(
            "{chain}forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. e(x, y) & t(y, z) -> t(x, z)"
        ));
        assert_minimal_proofs(
            "par(c1, p1)
             par(c2, p1)
             par(p1, g1)
             par(p2, g1)
             forall x, y, z. par(x, z) & par(y, z) -> sg(x, y)
             forall x, y, u, v. par(x, u) & sg(u, v) & par(y, v) -> sg(x, y)",
        );
        // Shortcut edges under the recursive rule listed first: the first
        // support of t(n0, n2) is e(n0, n1) & t(n1, n2), height 2, while
        // e(n0, n2) proves it at height 1; the first of t(n0, n4) goes
        // through n1 (height 3), the shortest through n2 (height 2).
        let dense: String = (0..6)
            .flat_map(|i| [1, 2].map(|d| format!("e(n{i}, n{})\n", i + d)))
            .collect();
        assert_minimal_proofs(&format!(
            "{dense}forall x, y, z. e(x, y) & t(y, z) -> t(x, z)
             forall x, y. e(x, y) -> t(x, y)"
        ));
        // Heads `bind_head` refuses tuples on: a repeated slot and a
        // constant column.
        assert_minimal_proofs(
            "f(a)
             g(b)
             forall x. f(x) -> self(x, x)
             forall x. g(x) -> self(x, x)
             forall x. f(x) -> tag(x, c0)
             forall x. g(x) -> tag(x, c1)
             forall x. self(x, x) & tag(x, c1) -> marked(x)",
        );
        // A ground head, and a rule over it.
        assert_minimal_proofs(
            "p(a)
             p(b)
             forall x. p(x) -> q(c)
             forall x. q(x) -> r(x)",
        );
        // A symmetric cycle listed first: t(a, b) and t(b, a) support each
        // other, but each also has its edge, and the walk takes the edge.
        assert_minimal_proofs(
            "e(a, b)
             e(b, c)
             forall x, y. t(y, x) -> t(x, y)
             forall x, y. e(x, y) -> t(x, y)
             forall x, y, z. t(x, y) & t(y, z) -> t(x, z)",
        );
    }

    /// Building, measuring, replaying, rendering and dropping a proof as
    /// deep as its chain fits a small thread stack.
    #[test]
    fn deep_proofs_need_no_deep_stack() {
        fn chain(n: usize) -> Program {
            let mut src = String::from("r(n0)\nforall x, y. r(x) & next(x, y) -> r(y)\n");
            for i in 0..n {
                src.push_str(&format!("next(n{i}, n{})\n", i + 1));
            }
            Program::from_text(&src).unwrap()
        }
        fn prove_end(prog: &Program, n: usize) -> ProofTree {
            let proof = prog.why(&[atom(&format!("r(n{n})"))]).pop();
            proof.flatten().expect("the chain's end is in the model")
        }
        // A session thread's default stack; one frame per level of a
        // height-20 000 proof would not fit in it.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let prog = chain(20_000);
                let proof = prove_end(&prog, 20_000);
                assert_eq!((proof.height(), proof.size()), (20_000, 40_001));
                assert!(proof.replays(&prog));
                drop(proof);
            })
            .unwrap()
            .join()
            .unwrap();
        // A rendered line is indented by its depth, so the text grows with
        // the square of the height: render a shallower proof, on a stack
        // that a recursive render or drop of it would overflow.
        let proof = prove_end(&chain(2_000), 2_000);
        std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(move || {
                let lines = proof.render();
                assert_eq!(lines.len(), 4_001);
                assert_eq!(lines[0], "r(n2000) <= rule 0");
                let deepest = format!("{}r(n0) (fact)", "  ".repeat(2_000));
                assert!(lines.contains(&deepest));
                drop(proof);
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
