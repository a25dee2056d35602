//! Derivation provenance: per-tuple support records and proof trees,
//! derived when asked.
//!
//! A traced evaluation ([`Program::fixpoint`](crate::Program::fixpoint)
//! given a table) records, for every head derivation the fixpoint
//! performs, one [`Support`] — the index of the rule that fired and the
//! ground positive body tuples it matched. Supports accumulate in a
//! [`SupportTable`], an interned side table keyed by ground atom, and
//! [`SupportTable::why`] reconstructs a **minimal proof tree** for any
//! tuple of the least model by walking supports down to extensional
//! facts, choosing at each node a support of minimal derivation height
//! (so the tree never cycles and every leaf is an EDB fact).
//!
//! Provenance is a query, not state: [`Program::why`](crate::Program::why)
//! runs one traced fixpoint of a definite program, however many atoms it
//! is asked about, and reads their proofs off that fresh table — the way
//! `demo` derives what the database knows from `Σ` when it is asked
//! (§5). Nothing is kept between calls, so the untraced entry points,
//! and with them every commit's [`Program::grow`](crate::Program::grow)
//! / [`Program::shrink`](crate::Program::shrink), record nothing and pay
//! nothing. Within a traced run the sink is a flat append-only buffer;
//! interning and deduplication happen once per run when the table
//! absorbs it.

use epilog_storage::{Database, Tuple};
use epilog_syntax::formula::Atom;
use epilog_syntax::{Param, Pred, Term};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (the FxHash construction) for the intern maps:
/// keys are short `Vec<u32>` tuples, small enough that SipHash's per-hash
/// setup would dominate the cost of a traced run.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The append-only buffer a traced evaluation records into — the
/// "provenance sink" threaded through the fixpoint. Zero-cost when
/// absent: the engine's derivation callback checks one `Option`.
///
/// The wire form is flat: each record is a `(rule, span)` header over
/// atoms appended to shared buffers (head first, then one atom per
/// positive body literal), so the hot recording path never allocates
/// beyond amortized buffer growth.
#[derive(Debug, Default)]
pub(crate) struct ProvenanceSink {
    /// Per record: the firing rule and the record's atom span.
    recs: Vec<(u32, u32, u32)>, // (rule_idx, atoms_start, n_atoms)
    /// Per recorded atom: predicate and its span in `params`.
    atoms: Vec<(Pred, u32, u32)>, // (pred, params_start, len)
    /// Flattened tuple storage.
    params: Vec<Param>,
}

impl ProvenanceSink {
    /// A fresh, empty sink.
    pub(crate) fn new() -> ProvenanceSink {
        ProvenanceSink::default()
    }

    /// Open a record; close it with [`ProvenanceSink::finish_record`]
    /// after pushing the head and parent atoms.
    pub(crate) fn begin_record(&mut self) -> u32 {
        self.atoms.len() as u32
    }

    /// Append an already-ground atom to the open record.
    pub(crate) fn push_tuple(&mut self, pred: Pred, tuple: &[Param]) {
        let start = self.params.len() as u32;
        self.params.extend_from_slice(tuple);
        self.atoms.push((pred, start, tuple.len() as u32));
    }

    /// Close the record opened at `atoms_start` under the firing rule.
    pub(crate) fn finish_record(&mut self, rule_idx: u32, atoms_start: u32) {
        self.recs
            .push((rule_idx, atoms_start, self.atoms.len() as u32 - atoms_start));
    }

    /// The atoms of record `rec` as `(pred, params)` slices, head first.
    fn record_atoms(&self, rec: usize) -> impl Iterator<Item = (Pred, &[Param])> + '_ {
        let (_, start, n) = self.recs[rec];
        self.atoms[start as usize..(start + n) as usize]
            .iter()
            .map(|&(pred, ps, len)| (pred, &self.params[ps as usize..(ps + len) as usize]))
    }
}

/// One way a tuple was derived: the firing rule (an index into the
/// program's rule list) and the interned ids of the ground positive body
/// tuples it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Support {
    /// Index of the rule that fired, in program rule order.
    pub rule_idx: u32,
    /// Interned atom ids of the ground positive body literals.
    pub parents: Vec<u32>,
}

/// The interned side table mapping every recorded ground atom to its
/// known derivations. Atom ids are dense and stable for the lifetime of
/// the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupportTable {
    ids: FxMap<Pred, FxMap<Tuple, u32>>,
    atoms: Vec<(Pred, Tuple)>,
    supports: Vec<Vec<Support>>,
}

impl SupportTable {
    /// A fresh, empty table.
    pub fn new() -> SupportTable {
        SupportTable::default()
    }

    fn intern(&mut self, pred: Pred, tuple: &[Param]) -> u32 {
        // Two-level keying so the hot path — interning an atom already
        // seen — borrows the tuple instead of cloning a composite key.
        let by_tuple = self.ids.entry(pred).or_default();
        if let Some(&id) = by_tuple.get(tuple) {
            return id;
        }
        let id = self.atoms.len() as u32;
        let tuple: Tuple = tuple.iter().copied().collect();
        self.atoms.push((pred, tuple.clone()));
        self.supports.push(Vec::new());
        by_tuple.insert(tuple, id);
        id
    }

    fn lookup(&self, pred: Pred, tuple: &[Param]) -> Option<u32> {
        self.ids.get(&pred)?.get(tuple).copied()
    }

    /// Attach an interned support to `head_id` unless already present.
    fn adopt_support(&mut self, head_id: u32, rule_idx: u32, parent_ids: &[u32]) -> bool {
        let list = &mut self.supports[head_id as usize];
        if list
            .iter()
            .any(|s| s.rule_idx == rule_idx && s.parents == parent_ids)
        {
            return false;
        }
        list.push(Support {
            rule_idx,
            parents: parent_ids.to_vec(),
        });
        true
    }

    /// Intern a sink's raw records, returning how many novel supports
    /// were retained.
    pub(crate) fn absorb(&mut self, sink: ProvenanceSink) -> u64 {
        let mut novel = 0u64;
        let mut scratch: Vec<u32> = Vec::new();
        for (rec, &(rule_idx, ..)) in sink.recs.iter().enumerate() {
            scratch.clear();
            for (pred, tuple) in sink.record_atoms(rec) {
                scratch.push(self.intern(pred, tuple));
            }
            let (&head_id, parent_ids) = scratch.split_first().expect("record has a head");
            if self.adopt_support(head_id, rule_idx, parent_ids) {
                novel += 1;
            }
        }
        novel
    }

    /// Number of distinct ground atoms the table has interned.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total number of recorded supports across all atoms.
    pub fn num_supports(&self) -> usize {
        self.supports.iter().map(Vec::len).sum()
    }

    /// Whether the table holds no supports at all.
    pub fn is_empty(&self) -> bool {
        self.num_supports() == 0
    }

    /// Check the table against a model: every supported head and every
    /// parent must be a model member, and every rule index in range —
    /// what a table traced from that model's fixpoint satisfies.
    pub fn consistent_with(&self, model: &Database, rules: usize) -> bool {
        self.supports.iter().enumerate().all(|(id, list)| {
            list.is_empty() || {
                let (pred, tuple) = &self.atoms[id];
                model.contains_tuple(*pred, tuple)
                    && list.iter().all(|s| {
                        (s.rule_idx as usize) < rules
                            && s.parents.iter().all(|&p| {
                                let (pp, pt) = &self.atoms[p as usize];
                                model.contains_tuple(*pp, pt)
                            })
                    })
            }
        })
    }

    /// Reconstruct a minimal derivation of `(pred, tuple)`: a proof tree
    /// whose every leaf is an extensional fact of `edb` and whose every
    /// internal node is a recorded support. Returns `None` when the atom
    /// is neither extensional nor provable from the recorded supports —
    /// for a table traced from a definite program's fixpoint, exactly
    /// when the atom is not in the least model.
    ///
    /// Node choice is by **derivation height** (extensional facts are
    /// height 0; a support's height is one more than its highest parent),
    /// so the recursion strictly descends and recorded cycles — mutual
    /// supports among re-derived tuples — can never loop the walk.
    pub fn why(&self, edb: &Database, pred: Pred, tuple: &[Param]) -> Option<ProofTree> {
        if edb.contains_tuple(pred, tuple) {
            return Some(ProofTree::Fact {
                atom: atom_of(pred, tuple),
            });
        }
        let id = self.lookup(pred, tuple)?;
        let heights = self.heights(edb);
        self.build_tree(id, &heights, edb)
    }

    /// Least derivation height of every interned atom: 0 for extensional
    /// facts, `1 + max(parent heights)` over the best support otherwise,
    /// `None` for atoms with no grounded derivation.
    fn heights(&self, edb: &Database) -> Vec<Option<u32>> {
        let n = self.atoms.len();
        let mut heights: Vec<Option<u32>> = vec![None; n];
        for (id, (pred, tuple)) in self.atoms.iter().enumerate() {
            if edb.contains_tuple(*pred, tuple) {
                heights[id] = Some(0);
            }
        }
        // Worklist fixpoint over the reverse dependency graph: when an
        // atom's height settles lower, re-examine the supports that use
        // it as a parent.
        let mut uses: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, list) in self.supports.iter().enumerate() {
            for s in list {
                for &p in &s.parents {
                    uses[p as usize].push(id as u32);
                }
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&i| heights[i as usize].is_some())
            .collect();
        while let Some(id) = queue.pop() {
            for &user in &uses[id as usize] {
                if let Some(h) = self.support_height(user, &heights) {
                    let slot = &mut heights[user as usize];
                    if slot.is_none_or(|old| h < old) {
                        *slot = Some(h);
                        queue.push(user);
                    }
                }
            }
        }
        heights
    }

    /// Height of `id`'s best fully-grounded support, if any.
    fn support_height(&self, id: u32, heights: &[Option<u32>]) -> Option<u32> {
        self.supports[id as usize]
            .iter()
            .filter_map(|s| {
                s.parents
                    .iter()
                    .map(|&p| heights[p as usize])
                    .collect::<Option<Vec<u32>>>()
                    .map(|hs| 1 + hs.into_iter().max().unwrap_or(0))
            })
            .min()
    }

    fn build_tree(&self, id: u32, heights: &[Option<u32>], edb: &Database) -> Option<ProofTree> {
        let (pred, tuple) = &self.atoms[id as usize];
        if edb.contains_tuple(*pred, tuple) {
            return Some(ProofTree::Fact {
                atom: atom_of(*pred, tuple),
            });
        }
        let my_height = heights[id as usize]?;
        // Pick the first support achieving the minimal height: every
        // parent then sits strictly below, so recursion terminates.
        let best = self.supports[id as usize].iter().find(|s| {
            s.parents
                .iter()
                .map(|&p| heights[p as usize])
                .collect::<Option<Vec<u32>>>()
                .is_some_and(|hs| 1 + hs.into_iter().max().unwrap_or(0) == my_height)
        })?;
        let premises = best
            .parents
            .iter()
            .map(|&p| self.build_tree(p, heights, edb))
            .collect::<Option<Vec<ProofTree>>>()?;
        Some(ProofTree::Derived {
            atom: atom_of(*pred, tuple),
            rule_idx: best.rule_idx as usize,
            premises,
        })
    }
}

impl crate::Program {
    /// Explain ground atoms of this **definite** program's least model:
    /// one traced [`Program::fixpoint`](crate::Program::fixpoint),
    /// however many atoms are asked, and a minimal-height [`ProofTree`]
    /// per atom read off that fresh table — `None` for an atom that is
    /// not ground or not in the model (the *why-not* answer: nothing
    /// derives it). A program with a negated body literal is outside the
    /// contract (debug builds assert it): its proofs would name positive
    /// premises only.
    pub fn why(&self, atoms: &[Atom]) -> Vec<Option<ProofTree>> {
        debug_assert!(!self.has_negation(), "why needs a definite program");
        let mut table = SupportTable::new();
        // A definite program is one stratum: its fixpoint cannot fail.
        let _ = self.fixpoint(true, Some(&mut table));
        atoms
            .iter()
            .map(|a| table.why(&self.edb, a.pred, &params_of(a)?))
            .collect()
    }
}

/// A reconstructed derivation: leaves are extensional facts, internal
/// nodes are rule firings over their premises.
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
        /// Proofs of the ground positive body literals.
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

    /// Total number of nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            ProofTree::Fact { .. } => 1,
            ProofTree::Derived { premises, .. } => {
                1 + premises.iter().map(ProofTree::size).sum::<usize>()
            }
        }
    }

    /// Height of the tree: 0 for a leaf fact.
    pub fn height(&self) -> usize {
        match self {
            ProofTree::Fact { .. } => 0,
            ProofTree::Derived { premises, .. } => {
                1 + premises.iter().map(ProofTree::height).max().unwrap_or(0)
            }
        }
    }

    /// Replay the proof against a program: every leaf must be an
    /// extensional fact, and every internal node's rule must actually
    /// derive the node's atom when fired over exactly the node's
    /// premises. The acceptance check of the provenance property suite.
    pub fn replays(&self, prog: &crate::Program) -> bool {
        match self {
            ProofTree::Fact { atom } => prog.edb.contains(atom),
            ProofTree::Derived {
                atom,
                rule_idx,
                premises,
            } => {
                let Some(rule) = prog.rules.get(*rule_idx) else {
                    return false;
                };
                let mut world = Database::new();
                for p in premises {
                    world.insert(p.atom());
                }
                let plan = crate::plan::RulePlan::compile(rule, &world);
                if plan.head.pred != atom.pred {
                    return false;
                }
                plan.ensure_total_indexes(&mut world);
                let target: Tuple = match params_of(atom) {
                    Some(t) => t,
                    None => return false,
                };
                let mut derived = false;
                let mut env = vec![None; plan.slots.len()];
                plan.full
                    .for_each_match(&world, None, &mut env, &mut |env| {
                        if plan.head.ground(env) == target {
                            derived = true;
                        }
                    });
                derived && premises.iter().all(|p| p.replays(prog))
            }
        }
    }

    /// Render the tree as indented lines, root first — the server's
    /// `why` reply body and the example's display format.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        match self {
            ProofTree::Fact { atom } => out.push(format!("{pad}{atom} (fact)")),
            ProofTree::Derived {
                atom,
                rule_idx,
                premises,
            } => {
                out.push(format!("{pad}{atom} <= rule {rule_idx}"));
                for p in premises {
                    p.render_into(depth + 1, out);
                }
            }
        }
    }
}

/// Rebuild a ground [`Atom`] from a predicate and stored tuple.
pub fn atom_of(pred: Pred, tuple: &[Param]) -> Atom {
    Atom::new(pred, tuple.iter().map(|&p| Term::Param(p)).collect())
}

/// The stored tuple of a ground atom, or `None` if any argument is a
/// variable.
pub fn params_of(atom: &Atom) -> Option<Tuple> {
    atom.terms.iter().map(Term::as_param).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use epilog_syntax::parse;

    fn atom(src: &str) -> Atom {
        match parse(src).unwrap() {
            epilog_syntax::Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    fn key(src: &str) -> (Pred, Tuple) {
        let a = atom(src);
        let t = params_of(&a).unwrap();
        (a.pred, t)
    }

    /// The table a traced run recording exactly `records` — `(rule, head,
    /// parents)`, in order — would leave, and how many supports were
    /// novel.
    fn table_of(records: &[(u32, &str, &[&str])]) -> (SupportTable, u64) {
        let mut sink = ProvenanceSink::new();
        for &(rule, head, parents) in records {
            let start = sink.begin_record();
            for src in std::iter::once(&head).chain(parents) {
                let (pred, tuple) = key(src);
                sink.push_tuple(pred, &tuple);
            }
            sink.finish_record(rule, start);
        }
        let mut table = SupportTable::new();
        let novel = table.absorb(sink);
        (table, novel)
    }

    #[test]
    fn record_dedups_and_interns() {
        let parents: &[&str] = &["e(a, b)", "t(b, c)"];
        let (t, novel) = table_of(&[
            (1, "t(a, c)", parents),
            (1, "t(a, c)", parents),       // duplicate support
            (0, "t(a, c)", &parents[..1]), // other rule
        ]);
        assert_eq!(novel, 2);
        assert_eq!(t.num_atoms(), 3);
        assert_eq!(t.num_supports(), 2);
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

    #[test]
    fn why_picks_minimal_height_over_cyclic_supports() {
        // t(a,b) and t(b,a) support each other (recorded from a fixpoint
        // that re-derived both), but each also has a ground support; the
        // walk must take the acyclic route.
        let prog = Program::from_text(
            "e(a, b)
             e(b, a)
             forall x, y. e(x, y) -> t(x, y)",
        )
        .unwrap();
        let (table, _) = table_of(&[
            (9, "t(a, b)", &["t(b, a)"]),
            (9, "t(b, a)", &["t(a, b)"]),
            (0, "t(a, b)", &["e(a, b)"]),
            (0, "t(b, a)", &["e(b, a)"]),
        ]);
        let (tab, tab_t) = key("t(a, b)");
        let tree = table.why(&prog.edb, tab, &tab_t).expect("provable");
        assert_eq!(tree.height(), 1, "must use the EDB support, not the cycle");
        assert!(tree.replays(&prog));
    }

    #[test]
    fn consistency_check_spots_dangling_parents() {
        let prog = Program::from_text(
            "e(a, b)
             forall x, y. e(x, y) -> t(x, y)",
        )
        .unwrap();
        let (model, _) = prog.eval().unwrap();
        let support = (0, "t(a, b)", &["e(a, b)"] as &[&str]);
        let (table, _) = table_of(&[support]);
        assert!(table.consistent_with(&model, prog.rules.len()));
        let (table, _) = table_of(&[support, (0, "t(a, b)", &["ghost(nowhere)"])]);
        assert!(!table.consistent_with(&model, prog.rules.len()));
    }
}
