//! Incremental integrity checking — the paper's §8 discussion item (4).
//!
//! "Usually a knowledge base will be known to satisfy its constraints.
//! When a (normally) small change is made to it, it should not be
//! necessary to verify all its constraints all over again." (Reiter cites
//! Nicolas 1982 for relational and Lloyd–Topor for deductive databases.)
//!
//! For epistemic constraints in the admissible `¬∃x̄ (KL₁ ∧ … ∧ KLₙ ∧ …)`
//! form this module implements the Nicolas-style specialization: when a
//! ground fact `a` is asserted, a constraint can only *become* violated
//! through instantiations whose positive `K`-literals match `a`. The
//! checker therefore:
//!
//! 1. skips constraints mentioning none of the update's predicates, and
//! 2. for the rest, checks only the violation instances obtained by
//!    unifying the new fact against each matching positive literal.
//!
//! **Soundness boundary** (documented, checked in tests): the
//! specialization is exact when the database's rules cannot derive atoms
//! of a constraint's trigger predicates from the update — in particular
//! for extensional (fact-only) databases, the common case for updates.
//! [`IncrementalChecker::check_update`] decides this **per constraint**
//! by consulting the theory's rule dependency graph: only constraints
//! whose triggers are rule-reachable from the update's predicate fall
//! back to a full recheck; the rest stay on the specialized (or skipped)
//! route, with the routing reported through
//! [`CheckStats`].
//!
//! **Evaluation.** Whatever the route, the sentence put to the database
//! is the violation `∃x̄ body` of an admissible constraint or an instance
//! of it, and it is run through [`demo`](mod@crate::demo): the constraint
//! holds iff `demo` finitely fails on its violation (Theorem 5.1 with
//! Lemma 5.2 — the violation is subjective). `demo` binds variables from
//! the positive `K`-literals leftmost first, so a check looks up the atoms
//! the violation names instead of expanding its quantifiers over the
//! active domain.

use crate::demo;
use epilog_datalog::Program;
use epilog_prover::Prover;
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{admissibility, admissible_constraint, Param, Pred, Term, Theory, Var};
use std::collections::{BTreeSet, HashMap};

/// A constraint compiled for incremental checking.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// The original constraint sentence.
    pub original: Formula,
    /// The admissible `¬∃x̄ body` rewrite.
    pub rewritten: Formula,
    /// The existentially quantified variables `x̄`.
    vars: Vec<Var>,
    /// The matrix `body` (a conjunction of subjective literals).
    body: Formula,
    /// The positive `K`-literal atom patterns in the matrix.
    positive_patterns: Vec<Atom>,
    /// The `K`-literal atom patterns under a negation in the matrix
    /// (inner `∃` prefixes stripped). A *removal* can only newly violate
    /// the constraint by making one of these negated conjuncts true —
    /// the mirror image of the positive patterns for retractions. Empty
    /// for prohibitions (`¬∃x̄ K bad(x)`: removal can never violate) and
    /// for constraints whose negated conjunct is an equality (the
    /// functional dependency: removing an `ss` fact cannot equate two
    /// distinct numbers).
    negative_patterns: Vec<Atom>,
}

/// Why compilation failed: the constraint is outside the admissible
/// `¬∃x̄ (conjunction)` fragment this checker specializes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotCompilable(pub String);

impl CompiledConstraint {
    /// Compile a constraint (in natural `∀/⊃` or already-rewritten form).
    pub fn compile(ic: &Formula) -> Result<Self, NotCompilable> {
        let rewritten = admissible_constraint(ic);
        // Every check runs `demo` on (instances of) the rewrite.
        let verdict = admissibility(&rewritten);
        if !verdict.is_admissible() {
            return Err(NotCompilable(format!("{rewritten}: {verdict}")));
        }
        // Expect ¬∃x̄ body.
        let Formula::Not(inner) = &rewritten else {
            return Err(NotCompilable(rewritten.to_string()));
        };
        let mut vars = Vec::new();
        let mut cur: &Formula = inner;
        while let Formula::Exists(x, b) = cur {
            vars.push(*x);
            cur = b;
        }
        let body = cur.clone();
        // Collect positive K-literal atoms from the conjunction.
        let mut positive_patterns = Vec::new();
        collect_positive_k_atoms(&body, &mut positive_patterns);
        if positive_patterns.is_empty() {
            return Err(NotCompilable(format!(
                "no positive K-literal to index on in {rewritten}"
            )));
        }
        let mut negative_patterns = Vec::new();
        collect_negative_k_atoms(&body, &mut negative_patterns);
        Ok(CompiledConstraint {
            original: ic.clone(),
            rewritten,
            vars,
            body,
            positive_patterns,
            negative_patterns,
        })
    }

    /// The predicates whose updates can newly violate this constraint,
    /// deduplicated (a predicate occurring in several positive patterns —
    /// the functional dependency's `ss` — is reported once).
    pub fn trigger_preds(&self) -> Vec<Pred> {
        let set: BTreeSet<Pred> = self.positive_patterns.iter().map(|a| a.pred).collect();
        set.into_iter().collect()
    }

    /// The predicates whose **removals** can newly violate this
    /// constraint (the predicates of the negated `K`-patterns),
    /// deduplicated. Empty when no removal can ever violate it.
    pub fn negative_trigger_preds(&self) -> Vec<Pred> {
        let set: BTreeSet<Pred> = self.negative_patterns.iter().map(|a| a.pred).collect();
        set.into_iter().collect()
    }

    /// The violation-check instances induced by a new ground fact: for
    /// each positive pattern matching the fact, the body with the matched
    /// variables bound and the rest existentially quantified. The
    /// constraint (restricted to the update) is violated iff the database
    /// knows one of these sentences.
    pub fn violation_instances(&self, fact: &Atom) -> Vec<Formula> {
        let mut out = Vec::new();
        for pattern in &self.positive_patterns {
            if pattern.pred != fact.pred {
                continue;
            }
            let Some(binding) = match_pattern(pattern, fact) else {
                continue;
            };
            let map: HashMap<Var, Term> =
                binding.iter().map(|(v, p)| (*v, Term::Param(*p))).collect();
            let mut w = self.body.subst(&map);
            for v in self.vars.iter().rev() {
                if !binding.contains_key(v) {
                    w = Formula::exists(*v, w);
                }
            }
            debug_assert!(w.is_sentence(), "instantiated violation check is closed");
            out.push(w);
        }
        out
    }

    /// The violation-check instances induced by a **removed** model atom:
    /// for each negated pattern matching it, the body with the matched
    /// *outer* variables bound (variables the pattern binds under its own
    /// inner `∃` stay quantified — the removed atom only witnesses which
    /// instantiation to re-check, not the inner search) and the remaining
    /// outer variables re-quantified. The constraint, restricted to this
    /// removal, is violated iff the database knows one of these sentences.
    pub fn removal_violation_instances(&self, removed: &Atom) -> Vec<Formula> {
        let mut out = Vec::new();
        for pattern in &self.negative_patterns {
            if pattern.pred != removed.pred {
                continue;
            }
            let Some(binding) = match_pattern(pattern, removed) else {
                continue;
            };
            let map: HashMap<Var, Term> = binding
                .iter()
                .filter(|(v, _)| self.vars.contains(v))
                .map(|(v, p)| (*v, Term::Param(*p)))
                .collect();
            let mut w = self.body.subst(&map);
            for v in self.vars.iter().rev() {
                if !map.contains_key(v) {
                    w = Formula::exists(*v, w);
                }
            }
            debug_assert!(w.is_sentence(), "instantiated violation check is closed");
            out.push(w);
        }
        out
    }

    /// Whether `Σ ⊨ IC`: `demo` succeeds on the `¬∃x̄ body` rewrite, i.e.
    /// finitely fails on the violation. Presumes `Σ` satisfiable, as
    /// Theorem 5.1 does.
    pub fn holds(&self, prover: &Prover) -> bool {
        demo::succeeds(prover, &self.rewritten)
    }

    /// Ground witness tuples for a **violated** constraint: the positive
    /// `K`-patterns under the first binding of `x̄` for which `demo`
    /// succeeds on the violation body — the minimal facts responsible, in
    /// the sense of consistency-based belief change. Conjuncts bind left
    /// to right, each in the prover's answer order, so the first binding
    /// is the least one in that order. Empty when the constraint holds.
    pub fn violation_witnesses(&self, prover: &Prover) -> Vec<Atom> {
        let mut answers = demo::run(prover, &self.body);
        let Some(tuple) = answers.next() else {
            return Vec::new();
        };
        let binding: HashMap<Var, Term> = answers
            .vars()
            .iter()
            .zip(tuple)
            .map(|(v, p)| (*v, Term::Param(p)))
            .collect();
        self.positive_patterns
            .iter()
            .map(|pattern| pattern.subst(&binding))
            .collect()
    }
}

/// How the constraints of one update were verified — the per-phase
/// accounting surfaced by `CommitReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Constraints skipped outright: the update's predicate neither
    /// triggers them nor reaches a trigger through the rule graph.
    pub skipped: u64,
    /// Constraints checked through the Nicolas-style specialization
    /// (violation instances of the new fact only).
    pub specialized: u64,
    /// Constraints re-checked in full (a rule chain from the update's
    /// predicate can derive a trigger predicate, or the caller fell back).
    pub full: u64,
}

/// The body→head predicate dependency graph of a theory's rules,
/// precomputed so constraint routing does not re-derive it per commit.
///
/// Built once per rule set (see [`RuleGraph::new`]) and cached on
/// `EpistemicDb` across commits: ground-atom commits cannot change the
/// rules, so the cache is invalidated only by rule-changing commits.
#[derive(Debug, Clone, Default)]
pub struct RuleGraph {
    edges: Vec<(BTreeSet<Pred>, BTreeSet<Pred>)>,
}

impl RuleGraph {
    /// Extract the dependency edges of every rule-shaped sentence, with
    /// both rule views (syntactic and Datalog — see `dependency_edges`).
    pub fn new(theory: &Theory) -> Self {
        RuleGraph {
            edges: dependency_edges(theory),
        }
    }

    /// The predicates a rule chain can derive starting from atoms of the
    /// `seeds` (transitive closure; a seed appears only when some chain
    /// re-derives it).
    pub fn derivable_from(&self, seeds: &BTreeSet<Pred>) -> BTreeSet<Pred> {
        derivable_from(&self.edges, seeds)
    }

    /// Number of dependency edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the theory has no rule-shaped sentences.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Incremental checker over a set of compiled constraints.
///
/// Every verdict comes from `demo` on a violation sentence (see the
/// [module docs](self)). On a definite database the prover carries the
/// least model, and then the model is the whole evaluator: a ground
/// `K`-literal is a tuple lookup, an open one a selection on its
/// relation, `K (y = z)` a comparison of two parameters — a check makes
/// no SAT call and never walks the active domain. Without a model the
/// same `demo` run asks the SAT-backed prover instead.
#[derive(Debug, Clone, Default)]
pub struct IncrementalChecker {
    constraints: Vec<CompiledConstraint>,
}

impl IncrementalChecker {
    /// Build from constraints, compiling each.
    pub fn new(constraints: &[Formula]) -> Result<Self, NotCompilable> {
        let compiled = constraints
            .iter()
            .map(CompiledConstraint::compile)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IncrementalChecker {
            constraints: compiled,
        })
    }

    /// Check an update: `prover` must already include the new fact.
    /// Returns the first violated constraint, if any. The single-fact,
    /// no-removal case of [`IncrementalChecker::check_batch_with_removals`]
    /// (which documents the routing and its soundness precondition), with
    /// the dependency graph derived from the prover's theory on the spot.
    pub fn check_update(&self, prover: &Prover, fact: &Atom) -> Option<&CompiledConstraint> {
        self.check_batch_with_removals(
            prover,
            &[fact],
            &[],
            &RuleGraph::new(prover.theory()),
            &mut CheckStats::default(),
        )
    }

    /// Check a batch: `facts` are the asserted ground facts (`prover`
    /// must already include them all) and `removed` the atoms the update
    /// erased *from the attached least model* — the exact model diff,
    /// derived consequences included, not merely the retracted
    /// extensional facts. Each constraint is routed **once** for the
    /// whole batch. Returns the first violated constraint, if any.
    ///
    /// Per constraint, the route is chosen by the **rule dependency
    /// graph** (not by the blunt "any rules present" test): if no rule
    /// chain leads from any updated predicate to one of the constraint's
    /// trigger predicates, the asserted facts are the only new
    /// trigger-relevant atoms and the Nicolas-style specialization is
    /// exact — the constraint is checked on the violation instances of
    /// the facts whose predicate triggers it. If such a chain exists, the
    /// update may derive trigger atoms beyond the facts themselves and
    /// the constraint is re-checked in full (once, not per fact).
    /// Constraints the batch cannot reach at all are skipped.
    ///
    /// The removal side mirrors it. A removal can newly violate a
    /// constraint only by making one of its *negated* conjuncts true, so
    /// a constraint is specialized when an asserted predicate hits a
    /// positive trigger or a removed predicate hits a negative trigger,
    /// and checked on the union of both kinds of violation instances. No
    /// dependency-graph fallback exists on the removal side: because
    /// `removed` is the exact model diff, a derived trigger atom that
    /// disappeared is itself in the list — the graph is only consulted
    /// for what *assertions* might derive beyond themselves.
    ///
    /// `graph` must be the dependency graph of the prover's theory's rule
    /// set; the caller supplies it so that one cached across commits
    /// (rules change rarely; facts change constantly) is not re-derived
    /// per commit — `EpistemicDb` maintains exactly that invariant by
    /// rebuilding its cache on rule-changing commits.
    ///
    /// **Soundness precondition**: every *non-rule* sentence of the
    /// theory is a ground atom (the definite shape). A disjunction like
    /// `¬p(a) ∨ emp(b)` can make an `emp` atom certain when `p(a)` is
    /// asserted without any rule edge from `p` to `emp` — the dependency
    /// graph cannot see that, so such theories must use
    /// [`IncrementalChecker::check_full`] instead.
    pub fn check_batch_with_removals(
        &self,
        prover: &Prover,
        facts: &[&Atom],
        removed: &[Atom],
        graph: &RuleGraph,
        stats: &mut CheckStats,
    ) -> Option<&CompiledConstraint> {
        let updated: BTreeSet<Pred> = facts.iter().map(|f| f.pred).collect();
        let removed_preds: BTreeSet<Pred> = removed.iter().map(|f| f.pred).collect();
        let derivable = graph.derivable_from(&updated);
        for c in &self.constraints {
            let triggers = c.trigger_preds();
            let neg_triggers = c.negative_trigger_preds();
            if triggers.iter().any(|t| derivable.contains(t)) {
                // A rule chain from the batch can derive a trigger atom
                // the specialization would not see: one full recheck.
                stats.full += 1;
                if !c.holds(prover) {
                    return Some(c);
                }
            } else if triggers.iter().any(|t| updated.contains(t))
                || neg_triggers.iter().any(|t| removed_preds.contains(t))
            {
                stats.specialized += 1;
                for fact in facts {
                    if !triggers.contains(&fact.pred) {
                        continue;
                    }
                    if c.violation_instances(fact)
                        .iter()
                        .any(|w| demo::succeeds(prover, w))
                    {
                        return Some(c);
                    }
                }
                for gone in removed {
                    if !neg_triggers.contains(&gone.pred) {
                        continue;
                    }
                    if c.removal_violation_instances(gone)
                        .iter()
                        .any(|w| demo::succeeds(prover, w))
                    {
                        return Some(c);
                    }
                }
            } else {
                stats.skipped += 1;
            }
        }
        None
    }

    /// Full (non-incremental) check of every constraint, for comparison.
    pub fn check_full(&self, prover: &Prover) -> Option<&CompiledConstraint> {
        self.constraints.iter().find(|c| !c.holds(prover))
    }

    /// Number of compiled constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether no constraints are registered.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

/// The body→head predicate dependency edges of every rule-shaped
/// sentence, extracted with **both** rule views: the syntactic one
/// (`Theory::rules`, which handles positive-existential heads but
/// range-restricts — it rejects a rule whose quantified variables don't
/// all occur in the body) and the Datalog one (`Program::from_sentences`,
/// which accepts rules with unused quantified variables). The definite
/// engine evaluates the Datalog view, so the routing graph must cover at
/// least that — an edge seen by either view is an edge.
fn dependency_edges(theory: &Theory) -> Vec<(BTreeSet<Pred>, BTreeSet<Pred>)> {
    let mut edges: Vec<(BTreeSet<Pred>, BTreeSet<Pred>)> = Vec::new();
    for rule in theory.rules() {
        edges.push((
            rule.body.iter().map(|a| a.pred).collect(),
            rule.head.preds().into_iter().collect(),
        ));
    }
    for s in theory.sentences() {
        if matches!(&**s, Formula::Atom(a) if a.is_ground()) {
            continue;
        }
        if let Ok(prog) = Program::from_sentences(std::slice::from_ref(s)) {
            for r in &prog.rules {
                edges.push((
                    r.body.iter().map(|l| l.atom.pred).collect(),
                    std::iter::once(r.head.pred).collect(),
                ));
            }
        }
    }
    edges
}

/// The predicates a rule chain can derive starting from atoms of the
/// `seeds`: transitive closure over the dependency edges. A seed itself
/// appears only when some chain re-derives it (e.g. a symmetry rule
/// `e(x,y) ⊃ e(y,x)` can produce *new* `e` atoms from an `e` assertion) —
/// the asserted facts alone are handled by the specialization directly.
fn derivable_from(
    edges: &[(BTreeSet<Pred>, BTreeSet<Pred>)],
    seeds: &BTreeSet<Pred>,
) -> BTreeSet<Pred> {
    let mut reached = BTreeSet::new();
    let mut frontier: Vec<Pred> = seeds.iter().copied().collect();
    while let Some(p) = frontier.pop() {
        for (body, heads) in edges {
            if body.contains(&p) {
                for &h in heads {
                    if reached.insert(h) {
                        frontier.push(h);
                    }
                }
            }
        }
    }
    reached
}

fn collect_positive_k_atoms(w: &Formula, out: &mut Vec<Atom>) {
    match w {
        Formula::And(a, b) => {
            collect_positive_k_atoms(a, out);
            collect_positive_k_atoms(b, out);
        }
        Formula::Know(inner) => {
            // K over an atom, or K over a conjunction of atoms.
            collect_bare_atoms(inner, out);
        }
        _ => {}
    }
}

/// Collect the `K`-atom patterns sitting under a negated conjunct:
/// `¬K a`, `¬∃ȳ K a`, or `¬K ∃ȳ a` — the `∃` prefixes on either side of
/// the `K` are stripped (they only widen which instantiation a removal
/// invalidates, the pattern is the atom either way). Negated equalities
/// contribute nothing (a removal cannot make `y = z` true), which is
/// what keeps the functional dependency off the removal route.
fn collect_negative_k_atoms(w: &Formula, out: &mut Vec<Atom>) {
    match w {
        Formula::And(a, b) => {
            collect_negative_k_atoms(a, out);
            collect_negative_k_atoms(b, out);
        }
        Formula::Not(inner) => {
            let mut cur: &Formula = inner;
            while let Formula::Exists(_, b) = cur {
                cur = b;
            }
            if let Formula::Know(known) = cur {
                let mut kcur: &Formula = known;
                while let Formula::Exists(_, b) = kcur {
                    kcur = b;
                }
                collect_bare_atoms(kcur, out);
            } else {
                collect_positive_k_atoms(cur, out);
            }
        }
        _ => {}
    }
}

fn collect_bare_atoms(w: &Formula, out: &mut Vec<Atom>) {
    match w {
        Formula::Atom(a) => out.push(a.clone()),
        Formula::And(a, b) => {
            collect_bare_atoms(a, out);
            collect_bare_atoms(b, out);
        }
        _ => {}
    }
}

/// Match a pattern atom against a ground fact, binding pattern variables.
fn match_pattern(pattern: &Atom, fact: &Atom) -> Option<HashMap<Var, Param>> {
    debug_assert_eq!(pattern.pred, fact.pred);
    let mut out = HashMap::new();
    for (t, f) in pattern.terms.iter().zip(&fact.terms) {
        let fp = f.as_param().expect("facts are ground");
        match t {
            Term::Param(p) => {
                if *p != fp {
                    return None;
                }
            }
            Term::Var(v) => match out.get(v) {
                Some(prev) if *prev != fp => return None,
                _ => {
                    out.insert(*v, fp);
                }
            },
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::{parse, Theory};

    fn ga(src: &str) -> Atom {
        match parse(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    fn checker() -> IncrementalChecker {
        IncrementalChecker::new(&[
            parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap(),
            parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn compilation_extracts_patterns() {
        let c = CompiledConstraint::compile(
            &parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap(),
        )
        .unwrap();
        assert_eq!(c.trigger_preds(), vec![Pred::new("emp", 1)]);
        let c2 = CompiledConstraint::compile(
            &parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
        )
        .unwrap();
        // Two positive `ss` patterns, one trigger predicate.
        assert_eq!(c2.trigger_preds(), vec![Pred::new("ss", 2)]);
    }

    #[test]
    fn irrelevant_updates_skip_all_constraints() {
        let ck = checker();
        let prover =
            Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nhobby(Mary, chess)").unwrap());
        let mut stats = CheckStats::default();
        assert!(ck
            .check_batch_with_removals(
                &prover,
                &[&ga("hobby(Mary, chess)")],
                &[],
                &RuleGraph::new(prover.theory()),
                &mut stats,
            )
            .is_none());
        assert_eq!(stats.skipped, 2, "no constraint triggers on hobby");
        assert_eq!(stats.specialized + stats.full, 0);
    }

    #[test]
    fn relevant_update_detects_violation() {
        let ck = checker();
        // Asserting emp(Sue) with no number on file: violated.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let hit = ck.check_update(&prover, &ga("emp(Sue)"));
        assert!(hit.is_some());
        assert!(hit.unwrap().original.to_string().contains("emp"));
    }

    #[test]
    fn relevant_update_passes_when_satisfied() {
        let ck = checker();
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n2)").unwrap(),
        );
        assert!(ck.check_update(&prover, &ga("emp(Sue)")).is_none());
    }

    #[test]
    fn fd_violation_caught_incrementally() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("ss(Mary, n1)\nss(Mary, n2)").unwrap());
        let hit = ck.check_update(&prover, &ga("ss(Mary, n2)"));
        assert!(hit.is_some());
        assert!(hit.unwrap().original.to_string().contains("y = z"));
    }

    #[test]
    fn incremental_agrees_with_full_on_fact_databases() {
        let ck = checker();
        // A family of states and updates; the incremental verdict must
        // match the full recheck whenever the *prior* state satisfied the
        // constraints (the incremental premise).
        let cases = [
            ("ss(Mary, n1)\nemp(Mary)", "emp(Mary)"),
            ("ss(Mary, n1)\nemp(Mary)\nemp(Sue)", "emp(Sue)"),
            ("ss(Mary, n1)\nss(Mary, n2)", "ss(Mary, n2)"),
            ("ss(Mary, n1)\nss(Sue, n2)", "ss(Sue, n2)"),
        ];
        for (src, fact) in cases {
            let prover = Prover::new(Theory::from_text(src).unwrap());
            let inc = ck.check_update(&prover, &ga(fact)).is_some();
            let full = ck.check_full(&prover).is_some();
            assert_eq!(inc, full, "divergence on {src:?} + {fact}");
        }
    }

    #[test]
    fn incremental_check_through_routed_prover() {
        // Extensional update states are definite, so the checker's
        // entailment questions ride the engine-backed fast path.
        let ck = checker();
        let bad = crate::engine::prover_for(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap(),
        );
        assert!(bad.atom_model().is_some());
        assert!(ck.check_update(&bad, &ga("emp(Sue)")).is_some());
        let good = crate::engine::prover_for(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        assert!(ck.check_update(&good, &ga("emp(Mary)")).is_none());
    }

    #[test]
    fn rule_chains_to_triggers_force_full_check() {
        let ck = checker();
        // A rule derives emp from hired: the update hired(Sue) can violate
        // the emp constraint even though its predicate is not a trigger.
        let prover = Prover::new(
            Theory::from_text("ss(Mary, n1)\nemp(Mary)\nhired(Sue)\nforall x. hired(x) -> emp(x)")
                .unwrap(),
        );
        assert!(ck.check_full(&prover).is_some());
        // The dependency graph routes the hired update to a full recheck
        // of the emp constraint (hired → emp is a trigger chain):
        let mut stats = CheckStats::default();
        assert!(ck
            .check_batch_with_removals(
                &prover,
                &[&ga("hired(Sue)")],
                &[],
                &RuleGraph::new(prover.theory()),
                &mut stats,
            )
            .is_some());
        assert!(stats.full >= 1, "rule chain must force a full check");
        // Keyed on the trigger predicate itself, the specialization still
        // applies (nothing derives emp *from* emp):
        let mut stats = CheckStats::default();
        assert!(ck
            .check_batch_with_removals(
                &prover,
                &[&ga("emp(Sue)")],
                &[],
                &RuleGraph::new(prover.theory()),
                &mut stats,
            )
            .is_some());
        assert_eq!(stats.full, 0, "emp is not rule-derivable from emp");
        assert!(stats.specialized >= 1);
    }

    #[test]
    fn irrelevant_rules_keep_the_specialization() {
        // Rules whose heads never reach a trigger predicate must not
        // degrade the update check to a full recheck.
        let ck = checker();
        let prover = Prover::new(
            Theory::from_text(
                "ss(Mary, n1)\nemp(Mary)\nforall x. emp(x) -> person(x)\nemp(Sue)\nss(Sue, n2)",
            )
            .unwrap(),
        );
        let mut stats = CheckStats::default();
        assert!(ck
            .check_batch_with_removals(
                &prover,
                &[&ga("emp(Sue)")],
                &[],
                &RuleGraph::new(prover.theory()),
                &mut stats,
            )
            .is_none());
        assert_eq!(
            stats.full, 0,
            "emp -> person never reaches a trigger predicate"
        );
        assert_eq!(stats.specialized, 1, "only the emp constraint is checked");
        assert_eq!(stats.skipped, 1, "the ss constraint is skipped");
    }

    #[test]
    fn self_recursive_trigger_pred_forces_full_check() {
        // A symmetry rule re-derives the trigger predicate itself: the
        // asserted fact is no longer the only new trigger atom.
        let ck =
            IncrementalChecker::new(&[
                parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap()
            ])
            .unwrap();
        let prover = Prover::new(
            Theory::from_text("ss(Mary, n1)\nforall x, y. ss(x, y) -> ss(y, x)").unwrap(),
        );
        let mut stats = CheckStats::default();
        ck.check_batch_with_removals(
            &prover,
            &[&ga("ss(Mary, n1)")],
            &[],
            &RuleGraph::new(prover.theory()),
            &mut stats,
        );
        assert_eq!(stats.full, 1, "ss reaches ss through the symmetry rule");
    }

    #[test]
    fn engine_only_rules_are_visible_to_routing() {
        // `forall x, z. p(x) -> q(x)` fails the syntactic range
        // restriction (z never occurs in the body) so Theory::rules()
        // omits it — but the Datalog engine evaluates it. The dependency
        // graph must still see the p → q edge.
        let ck = IncrementalChecker::new(&[parse("forall x. ~K q(x)").unwrap()]).unwrap();
        let theory = Theory::from_text("p(a)\nforall x, z. p(x) -> q(x)").unwrap();
        assert!(
            theory.rules().is_empty(),
            "premise: syntactic view is blind"
        );
        let prover = crate::engine::prover_for(theory);
        assert!(
            prover.atom_model().is_some(),
            "premise: engine evaluates it"
        );
        let mut stats = CheckStats::default();
        let hit = ck.check_batch_with_removals(
            &prover,
            &[&ga("p(a)")],
            &[],
            &RuleGraph::new(prover.theory()),
            &mut stats,
        );
        assert!(hit.is_some(), "q(a) is derived, violating the prohibition");
        assert_eq!(stats.full, 1, "p reaches q through the engine-only rule");
    }

    #[test]
    fn prohibition_constraints_compile_and_trigger() {
        // ∀x ¬K bad(x) rewrites to ¬∃x K bad(x): the K-literal indexes it.
        let c = CompiledConstraint::compile(&parse("forall x. ~K bad(x)").unwrap()).unwrap();
        assert_eq!(c.trigger_preds(), vec![Pred::new("bad", 1)]);
        let ck = IncrementalChecker::new(&[parse("forall x. ~K bad(x)").unwrap()]).unwrap();
        let prover = Prover::new(Theory::from_text("bad(Joe)").unwrap());
        assert!(ck.check_update(&prover, &ga("bad(Joe)")).is_some());
    }

    #[test]
    fn negative_patterns_extracted_per_shape() {
        // emp→ss: the negated ∃y K ss(x,y) conjunct is a removal trigger.
        let c = CompiledConstraint::compile(
            &parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap(),
        )
        .unwrap();
        assert_eq!(c.negative_trigger_preds(), vec![Pred::new("ss", 2)]);
        // FD: the negated conjunct is an equality — no removal trigger.
        let fd = CompiledConstraint::compile(
            &parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
        )
        .unwrap();
        assert!(fd.negative_trigger_preds().is_empty());
        // Prohibition: no negated conjunct at all under the ∃ prefix.
        let ban = CompiledConstraint::compile(&parse("forall x. ~K bad(x)").unwrap()).unwrap();
        assert!(ban.negative_trigger_preds().is_empty());
    }

    #[test]
    fn removal_violation_caught_incrementally() {
        let ck = checker();
        // Sue keeps emp but loses her only ss fact: the emp→ss constraint
        // is violated, found through the removal specialization alone.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let graph = RuleGraph::new(prover.theory());
        let mut stats = CheckStats::default();
        let hit =
            ck.check_batch_with_removals(&prover, &[], &[ga("ss(Sue, n2)")], &graph, &mut stats);
        assert!(hit.is_some(), "emp(Sue) lost its number");
        assert!(hit.unwrap().original.to_string().contains("emp"));
        assert_eq!(stats.specialized, 1, "only the emp→ss constraint routes");
        // The violation short-circuits before the FD is even routed
        // (it would be skipped: a removal never violates an equality).
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.full, 0);
    }

    #[test]
    fn removal_specialization_passes_with_alternative_witness() {
        let ck = checker();
        // Sue has a second number: removing one keeps the constraint.
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n3)").unwrap(),
        );
        let graph = RuleGraph::new(prover.theory());
        let mut stats = CheckStats::default();
        let hit =
            ck.check_batch_with_removals(&prover, &[], &[ga("ss(Sue, n2)")], &graph, &mut stats);
        assert!(hit.is_none(), "ss(Sue, n3) still witnesses the ∃");
        assert_eq!(stats.specialized, 1);
    }

    #[test]
    fn irrelevant_removals_skip_all_constraints() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        let graph = RuleGraph::new(prover.theory());
        let mut stats = CheckStats::default();
        // Removing an emp atom can only *satisfy* the emp→ss constraint,
        // and bad/hobby removals touch nothing: all skipped.
        let hit = ck.check_batch_with_removals(
            &prover,
            &[],
            &[ga("emp(Sue)"), ga("hobby(Mary, chess)"), ga("bad(Joe)")],
            &graph,
            &mut stats,
        );
        assert!(hit.is_none());
        assert_eq!(stats.skipped, 2, "no removal reaches a negative trigger");
        assert_eq!(stats.specialized + stats.full, 0);
    }

    #[test]
    fn empty_removals_match_the_assert_only_route_exactly() {
        // A graph derived on the spot routes like the caller's cached one.
        let ck = checker();
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n2)").unwrap(),
        );
        let graph = RuleGraph::new(prover.theory());
        let (mut a, mut b) = (CheckStats::default(), CheckStats::default());
        let via_routed = ck
            .check_batch_with_removals(
                &prover,
                &[&ga("emp(Sue)")],
                &[],
                &RuleGraph::new(prover.theory()),
                &mut a,
            )
            .is_some();
        let via_removals = ck
            .check_batch_with_removals(&prover, &[&ga("emp(Sue)")], &[], &graph, &mut b)
            .is_some();
        assert_eq!(via_routed, via_removals);
        assert_eq!(a, b);
    }

    #[test]
    fn uncompilable_constraint_rejected() {
        // A positive knowledge *requirement* is not of the ¬∃ shape.
        let r = CompiledConstraint::compile(&parse("K p").unwrap());
        assert!(r.is_err());
    }
}
