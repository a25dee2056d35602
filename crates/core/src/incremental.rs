//! Incremental integrity checking — the paper's §8 discussion item (4).
//!
//! "Usually a knowledge base will be known to satisfy its constraints.
//! When a (normally) small change is made to it, it should not be
//! necessary to verify all its constraints all over again." (Reiter cites
//! Nicolas 1982 for relational and Lloyd–Topor for deductive databases.)
//!
//! For constraints in the admissible `¬∃x̄ body` form this module
//! implements the Nicolas-style specialization over a commit's exact
//! model diff — the atoms its new least model gained and lost, derived
//! consequences included. Every atom of `body` is a pattern of one
//! polarity: positive unless an odd number of `¬` sit above it (`K`, `∃`
//! and `∧` keep the polarity, and so does `∨`, which the rewrite spells
//! `¬(¬a ∧ ¬b)`); equalities contribute nothing. An added model atom fires
//! the positive patterns it matches, a removed one the negative patterns,
//! and each match yields a violation instance: `body` with the outer
//! variables the match fixes bound. A constraint no diff atom fires is
//! skipped; the others are checked on their instances only.
//!
//! **Why the diff is enough.** On a definite theory a first-order formula
//! without negated atoms is known iff it holds in the least model, so when
//! every atom sits positively inside its own `K` (which compilation
//! demands) `body` can only become true through a positive pattern gaining
//! an atom or a negative one losing one. A state that satisfied the
//! constraint before the commit therefore violates it afterwards only in
//! an instance some diff atom fires — derived atoms included, so no rule
//! analysis is needed. A commit without a diff (it changed the rules, or
//! the theory is not definite) re-checks every constraint in full, and a
//! constraint outside the compilable fragment re-checks itself in full at
//! every commit.
//!
//! **Evaluation.** A constraint is compiled once, at registration: its
//! violation body becomes [`demo`](mod@crate::demo)'s steps, numbered
//! over the same slots as its triggers and witnesses. The constraint
//! holds iff `demo` finitely fails on `∃x̄ body` (Theorem 5.1 with Lemma
//! 5.2 — the violation is subjective). A full check runs the steps from
//! no binding, and its first answer names a rejection's witnesses; an
//! instance runs the same steps from the bindings a diff atom's match
//! fixes. When the prover carries a least model, `demo` answers the
//! body's atoms, equalities and closed positive `K`-formulas from it
//! (the [`demo`](mod@crate::demo) module docs say which, and why that is
//! exact), so a check looks up the atoms the violation names instead of
//! expanding its quantifiers over the domain; a `K`-formula with an
//! unbound free variable, and every leaf on a prover without a model,
//! goes to `prove`. A constraint outside the fragment is checked by
//! `demo` on its admissible rewrite, compiled once at registration too,
//! or by [`certain`] when it has none.

use crate::ask::certain;
use crate::demo::{Goal, Slots};
use epilog_prover::Prover;
use epilog_storage::{AtomTemplate, Database, PatTerm, SlotMap};
use epilog_syntax::formula::{Atom, Formula};
use epilog_syntax::{admissibility, admissible_constraint, is_first_order, Param, Term, Var};

/// A registered integrity constraint, compiled once at registration.
#[derive(Debug, Clone)]
pub struct CompiledConstraint {
    /// The constraint sentence, as registered.
    pub original: Formula,
    check: Check,
}

/// How a constraint is checked, decided when it is compiled.
#[derive(Debug, Clone)]
enum Check {
    /// In the fragment this module specializes: its violation `∃x̄ body`,
    /// checked on the instances a diff fires, or in full.
    Routed(Violation),
    /// Outside it, with an admissible rewrite: `demo`'s steps for the
    /// rewrite, checked in full — the constraint holds iff they have an
    /// answer.
    Rewrite(Goal),
    /// With no admissible rewrite: the Levesque reduction, [`certain`].
    Certain,
}

/// The violation `∃x̄ body` of a constraint whose `¬∃x̄ body` rewrite is
/// admissible and modal, with every atom positive inside its own `K`.
#[derive(Debug, Clone)]
struct Violation {
    /// The existentially quantified variables `x̄`.
    vars: Vec<Var>,
    patterns: Patterns,
    /// `patterns.on_added`, then `patterns.on_removed`, compiled: what a
    /// diff atom is matched against.
    triggers: Vec<AtomTemplate>,
    /// `patterns.witnesses`, compiled.
    witnesses: Vec<AtomTemplate>,
    /// The matrix `body` as `demo`'s steps; its slots number the
    /// templates' variables too.
    body: Goal,
}

/// The atoms of a violation body, sorted by what can make them flip it.
#[derive(Debug, Clone, Default)]
struct Patterns {
    /// At positive polarity: an added model atom matching one can newly
    /// violate the constraint.
    on_added: Vec<Atom>,
    /// Under an odd number of `¬`: a removed model atom matching one can.
    on_removed: Vec<Atom>,
    /// The `K`-conjunct atoms (only `∧` and `K` above them): what a
    /// rejection names as its witnesses.
    witnesses: Vec<Atom>,
}

impl CompiledConstraint {
    /// Compile a constraint (in natural `∀/⊃` or already-rewritten form).
    pub fn compile(ic: &Formula) -> Self {
        // One rewrite per constraint: renaming its quantifiers apart
        // interns fresh variable names, which are never freed.
        let rewritten = admissible_constraint(ic);
        let check = if !admissibility(&rewritten).is_admissible() {
            Check::Certain
        } else if let Some(v) = Violation::of(&rewritten) {
            Check::Routed(v)
        } else {
            Check::Rewrite(Goal::compile(&rewritten, SlotMap::new()))
        };
        CompiledConstraint {
            original: ic.clone(),
            check,
        }
    }

    /// Whether the constraint is in the `¬∃x̄ body` fragment, so a commit
    /// with a model diff checks it on the instances the diff fires only.
    pub fn is_routed(&self) -> bool {
        matches!(self.check, Check::Routed(_))
    }

    /// Check the constraint in full against `prover`'s state: `None` when
    /// it holds, else the violation's witnesses — the `K`-conjunct atoms
    /// under the first answer on the body, the minimal facts responsible
    /// in the sense of consistency-based belief change (the least binding
    /// in the prover's answer order, conjuncts left to right). Empty
    /// outside the fragment, which has no patterns.
    pub fn violated(&self, prover: &Prover) -> Option<Vec<Atom>> {
        // Theorem 5.1 is about satisfiable databases; an unsatisfiable one
        // entails every sentence.
        let holds = match &self.check {
            Check::Routed(v) => {
                if !prover.satisfiable() {
                    return None;
                }
                let answer = v.body.first(prover, v.body.unbound())?;
                return Some(v.witnesses_of(&answer));
            }
            Check::Rewrite(goal) => {
                !prover.satisfiable() || goal.first(prover, goal.unbound()).is_some()
            }
            Check::Certain => certain(prover, &self.original),
        };
        (!holds).then(Vec::new)
    }
}

impl Violation {
    /// The violation of a constraint whose rewrite `rewritten` is
    /// admissible, when that is in the fragment.
    fn of(rewritten: &Formula) -> Option<Self> {
        // `demo` fails on `body` iff it succeeds on the modal rewrite; a
        // first-order one would go to `prove` whole.
        if is_first_order(rewritten) {
            return None;
        }
        let Formula::Not(inner) = rewritten else {
            return None;
        };
        let mut vars = Vec::new();
        let mut body = (**inner).clone();
        while let Formula::Exists(x, b) = body {
            vars.push(x);
            body = *b;
        }
        let mut patterns = Patterns::default();
        collect_patterns(&body, true, true, true, &mut patterns).ok()?;
        let mut slots = SlotMap::new();
        let mut compile = |atoms: &[Atom]| -> Vec<AtomTemplate> {
            atoms
                .iter()
                .map(|a| AtomTemplate::compile(a, &mut slots))
                .collect()
        };
        let mut triggers = compile(&patterns.on_added);
        triggers.extend(compile(&patterns.on_removed));
        let witnesses = compile(&patterns.witnesses);
        Some(Violation {
            vars,
            patterns,
            triggers,
            witnesses,
            body: Goal::compile(&body, slots),
        })
    }

    /// The witness atoms under `answer`, which binds every one of their
    /// variables (each is a conjunct the answer matched).
    fn witnesses_of(&self, answer: &Slots) -> Vec<Atom> {
        self.witnesses
            .iter()
            .map(|w| {
                Atom::new(
                    w.pred,
                    w.ground(answer).iter().map(|p| Term::Param(*p)).collect(),
                )
            })
            .collect()
    }

    /// The instances a diff starts `body` from: for every atom of the diff
    /// a trigger matches (`on_added` over the added atoms, `on_removed`
    /// over the removed), the outer variables the match fixes (a variable
    /// the pattern binds under an inner `∃` stays unbound — the atom says
    /// which instantiation to re-check, not how the inner search ends). The constraint, restricted to those atoms,
    /// is violated iff `body` has an answer from one of them.
    fn seeds<'a>(&'a self, diff: &'a ModelDiff) -> impl Iterator<Item = Slots> + 'a {
        let added = self.patterns.on_added.len();
        self.triggers
            .iter()
            .enumerate()
            .flat_map(move |(i, trigger)| {
                let atoms = if i < added {
                    diff.added.as_slice()
                } else {
                    std::slice::from_ref(&diff.removed)
                };
                let tuples = atoms
                    .iter()
                    .filter_map(|db| db.relation(trigger.pred))
                    .flat_map(|r| r.iter());
                tuples.filter_map(move |t| self.seed(trigger, t))
            })
    }

    /// The outer variables `trigger` binds matching `tuple`, if it does.
    fn seed(&self, trigger: &AtomTemplate, tuple: &[Param]) -> Option<Slots> {
        let mut env = self.body.unbound();
        for (arg, &p) in trigger.args.iter().zip(tuple) {
            match *arg {
                PatTerm::Const(q) if q != p => return None,
                PatTerm::Const(_) => {}
                PatTerm::Slot(s) if *env[s].get_or_insert(p) != p => return None,
                PatTerm::Slot(_) => {}
            }
        }
        for (slot, v) in env.iter_mut().zip(self.body.slots.vars()) {
            if !self.vars.contains(v) {
                *slot = None;
            }
        }
        Some(env)
    }
}

/// A commit's exact model diff, derived consequences included: what its
/// fixpoints changed.
#[derive(Debug)]
pub(crate) struct ModelDiff {
    /// Atoms of the new least model the old one lacks, as the insertion
    /// fixpoint's rounds added them (pairwise disjoint).
    pub(crate) added: Vec<Database>,
    /// Atoms of the old least model the new one lacks.
    pub(crate) removed: Database,
}

impl ModelDiff {
    /// The diff of a commit whose deletion fixpoint removed `removed`
    /// from the old model and whose insertion fixpoint then added
    /// `added`. An atom the one removed and the other put back is in
    /// both models, so it leaves both sides.
    pub(crate) fn new(mut added: Vec<Database>, mut removed: Database) -> Self {
        if !added.is_empty() && !removed.is_empty() {
            let back: Vec<Atom> = removed
                .atoms()
                .filter(|a| added.iter().any(|round| round.contains(a)))
                .collect();
            for a in &back {
                removed.remove(a);
                for round in &mut added {
                    round.remove(a);
                }
            }
        }
        ModelDiff { added, removed }
    }
}

/// How the constraints of one update were verified — the per-phase
/// accounting surfaced by `CommitReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Constraints skipped outright: no atom of the model diff matches
    /// one of their patterns.
    pub skipped: u64,
    /// Constraints checked on the violation instances the diff fires.
    pub specialized: u64,
    /// Constraints re-checked in full: the commit has no model diff, or
    /// the constraint does not compile.
    pub full: u64,
}

/// Check a commit against the registered `constraints`: `prover` holds
/// its candidate state and `diff` is the exact model diff from the state
/// before, or `None` when the commit has none (it changed the rules, or
/// the theory is not definite). Returns the first violated constraint, as
/// registered, with its witnesses.
///
/// With a diff, each compiled constraint is checked on the instances its
/// atoms fire and skipped when they fire none (exact by the argument in
/// the [module docs](self)); without one, and for a constraint that does
/// not compile, it is checked in full. Either way it is counted in
/// `stats`. On a definite database the least model is the whole
/// evaluator: a check makes no SAT call and never walks the domain.
pub(crate) fn check<'c>(
    constraints: &'c [CompiledConstraint],
    prover: &Prover,
    diff: Option<&ModelDiff>,
    stats: &mut CheckStats,
) -> Option<(&'c Formula, Vec<Atom>)> {
    constraints.iter().find_map(|c| {
        let witnesses = match (&c.check, diff) {
            (Check::Routed(v), Some(diff)) => {
                let mut seeds = v.seeds(diff).peekable();
                if seeds.peek().is_none() {
                    stats.skipped += 1;
                    return None;
                }
                stats.specialized += 1;
                if !seeds.any(|env| v.body.first(prover, env).is_some()) {
                    return None;
                }
                // The rejection names the first violation in answer
                // order, which need not be the instance that fired.
                c.violated(prover).unwrap_or_default()
            }
            _ => {
                stats.full += 1;
                c.violated(prover)?
            }
        };
        Some((&c.original, witnesses))
    })
}

/// Sort the atoms of a violation body into `out`. The rewrite is in
/// kernel form (`¬ ∧ ∃ K` over atoms and equalities). `positive` is the
/// polarity (`¬` flips it), `conjunct` holds while only `∧` and `K` lie
/// above, and `in_scope` is the polarity inside the innermost `K` (the
/// body's own for an atom under none). An atom negated inside its scope
/// is returned as the error: whether `Σ` entails such a scope is not a
/// function of the least model — `K (p(a) ⊃ q(a))` turns true when a
/// fact lets a rule derive `q(a)` from `p(a)` — so no diff routes it.
fn collect_patterns(
    w: &Formula,
    positive: bool,
    in_scope: bool,
    conjunct: bool,
    out: &mut Patterns,
) -> Result<(), Atom> {
    match w {
        Formula::Atom(a) if !in_scope => Err(a.clone()),
        Formula::Atom(a) => {
            if conjunct {
                out.witnesses.push(a.clone());
            }
            if positive {
                out.on_added.push(a.clone());
            } else {
                out.on_removed.push(a.clone());
            }
            Ok(())
        }
        Formula::Eq(..) => Ok(()),
        Formula::Not(a) => collect_patterns(a, !positive, !in_scope, false, out),
        Formula::And(a, b) => {
            collect_patterns(a, positive, in_scope, conjunct, out)?;
            collect_patterns(b, positive, in_scope, conjunct, out)
        }
        Formula::Exists(_, a) => collect_patterns(a, positive, in_scope, false, out),
        Formula::Know(a) => collect_patterns(a, positive, true, conjunct, out),
        other => unreachable!("admissible_constraint leaves no `{other}` in kernel form"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DbError, EpistemicDb, Rejection};
    use epilog_prover::AnswerIter;
    use epilog_syntax::{parse, Pred, Theory};

    fn ga(src: &str) -> Atom {
        match parse(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("not an atom: {other}"),
        }
    }

    /// The registered list a database would hold for `ics`.
    fn compiled(ics: &[&str]) -> Vec<CompiledConstraint> {
        ics.iter()
            .map(|ic| CompiledConstraint::compile(&parse(ic).unwrap()))
            .collect()
    }

    fn checker() -> Vec<CompiledConstraint> {
        compiled(&[
            "forall x. K emp(x) -> K (exists y. ss(x, y))",
            "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
        ])
    }

    /// The patterns of a constraint in the fragment.
    fn patterns(ic: &str) -> Patterns {
        match CompiledConstraint::compile(&parse(ic).unwrap()).check {
            Check::Routed(v) => v.patterns,
            _ => panic!("{ic} is not in the fragment"),
        }
    }

    fn diff(added: &[&str], removed: &[&str]) -> ModelDiff {
        ModelDiff {
            added: vec![added.iter().map(|a| ga(a)).collect()],
            removed: removed.iter().map(|a| ga(a)).collect(),
        }
    }

    /// The verdict (the violated constraint, printed) and route.
    fn check(
        ck: &[CompiledConstraint],
        prover: &Prover,
        diff: Option<&ModelDiff>,
    ) -> (Option<String>, CheckStats) {
        let mut stats = CheckStats::default();
        let hit = super::check(ck, prover, diff, &mut stats).map(|(ic, _)| ic.to_string());
        (hit, stats)
    }

    fn preds(atoms: &[Atom]) -> Vec<Pred> {
        let mut v: Vec<Pred> = atoms.iter().map(|a| a.pred).collect();
        v.dedup();
        v
    }

    /// Register `ics` on a database over `src`, commit `ops` (`+atom`
    /// asserts, `-atom` retracts) and return the route, or the rejection.
    fn commit_ops(src: &str, ics: &[&str], ops: &[&str]) -> Result<CheckStats, Box<Rejection>> {
        let mut db = EpistemicDb::from_text(src).unwrap();
        for ic in ics {
            db.add_constraint(parse(ic).unwrap()).unwrap();
        }
        let mut txn = db.transaction();
        for op in ops {
            let (sign, w) = op.split_at(1);
            let w = parse(w).unwrap();
            txn = if sign == "+" {
                txn.assert(w)
            } else {
                txn.retract(w)
            };
        }
        match txn.commit() {
            Ok(report) => Ok(report.checks),
            Err(DbError::ConstraintViolated(r)) => {
                assert!(db.satisfies_constraints(), "a rejection leaves no trace");
                Err(r)
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// [`commit_ops`] with the rejection reduced to the constraint it names.
    fn commit(src: &str, ics: &[&str], ops: &[&str]) -> Result<CheckStats, Formula> {
        commit_ops(src, ics, ops).map_err(|r| r.constraint)
    }

    /// What [`commit`] returns when `ic` refuses the commit.
    fn rejected(ic: &str) -> Result<CheckStats, Formula> {
        Err(parse(ic).unwrap())
    }

    const EMP_SS: &str = "forall x. K emp(x) -> exists y. K ss(x, y)";
    const FD: &str = "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z";

    fn routed(specialized: u64, skipped: u64) -> CheckStats {
        CheckStats {
            skipped,
            specialized,
            full: 0,
        }
    }

    #[test]
    fn compilation_extracts_patterns() {
        let c = patterns("forall x. K emp(x) -> K (exists y. ss(x, y))");
        assert_eq!(preds(&c.on_added), vec![Pred::new("emp", 1)]);
        let c2 = patterns(FD);
        // Two positive `ss` patterns, both witnesses.
        assert_eq!(c2.on_added.len(), 2);
        assert_eq!(preds(&c2.on_added), vec![Pred::new("ss", 2)]);
        assert_eq!(c2.witnesses, c2.on_added);
        // Atoms under `K ∃`, `∃ K` and `K ∨` are patterns too, but not
        // witnesses: the binding of x̄ does not ground them all.
        let c3 = patterns("forall x. K emp(x) & K (exists y. p(x, y)) & (exists y. K r(x, y)) & K (s(x) | t(x)) -> K q(x)");
        let names: Vec<String> = c3.on_added.iter().map(|a| a.pred.name()).collect();
        assert_eq!(names, ["emp", "p", "r", "s", "t"]);
        assert_eq!(preds(&c3.on_removed), vec![Pred::new("q", 1)]);
        assert_eq!(preds(&c3.witnesses), vec![Pred::new("emp", 1)]);
    }

    #[test]
    fn irrelevant_updates_skip_all_constraints() {
        let ck = checker();
        let prover =
            Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nhobby(Mary, chess)").unwrap());
        let (hit, stats) = check(&ck, &prover, Some(&diff(&["hobby(Mary, chess)"], &[])));
        assert!(hit.is_none());
        assert_eq!(stats, routed(0, 2), "no constraint triggers on hobby");
    }

    #[test]
    fn relevant_update_detects_violation() {
        let ck = checker();
        // Asserting emp(Sue) with no number on file: violated.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let (hit, _) = check(&ck, &prover, Some(&diff(&["emp(Sue)"], &[])));
        assert!(hit.unwrap().contains("emp"));
    }

    #[test]
    fn relevant_update_passes_when_satisfied() {
        let ck = checker();
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n2)").unwrap(),
        );
        let (hit, stats) = check(&ck, &prover, Some(&diff(&["emp(Sue)"], &[])));
        assert!(hit.is_none());
        assert_eq!(stats, routed(1, 1));
    }

    #[test]
    fn fd_violation_caught_incrementally() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("ss(Mary, n1)\nss(Mary, n2)").unwrap());
        let (hit, _) = check(&ck, &prover, Some(&diff(&["ss(Mary, n2)"], &[])));
        assert!(hit.unwrap().contains("y = z"));
    }

    #[test]
    fn incremental_agrees_with_full_on_fact_databases() {
        let ck = checker();
        // A family of states and updates; the routed verdict must match
        // the full recheck whenever the *prior* state satisfied the
        // constraints (the incremental premise).
        let cases = [
            ("ss(Mary, n1)\nemp(Mary)", "emp(Mary)", false),
            ("ss(Mary, n1)\nemp(Mary)\nemp(Sue)", "emp(Sue)", true),
            ("ss(Mary, n1)\nss(Mary, n2)", "ss(Mary, n2)", true),
            ("ss(Mary, n1)\nss(Sue, n2)", "ss(Sue, n2)", false),
            ("emp(e0)\nss(e0, n0)\nemp(e1)\nss(e1, n1)", "emp(e0)", false),
            ("emp(e0)\nss(e0, n0)\nemp(Norma)", "emp(Norma)", true),
        ];
        for (src, fact, violated) in cases {
            let prover = Prover::new(Theory::from_text(src).unwrap());
            let (inc, _) = check(&ck, &prover, Some(&diff(&[fact], &[])));
            let (full, stats) = check(&ck, &prover, None);
            assert_eq!(inc, full, "divergence on {src:?} + {fact}");
            assert_eq!(inc.is_some(), violated, "{src:?} + {fact}");
            assert_eq!(stats.skipped + stats.specialized, 0, "no diff: full");
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
        assert!(check(&ck, &bad, Some(&diff(&["emp(Sue)"], &[])))
            .0
            .is_some());
        let good = crate::engine::prover_for(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        assert!(check(&ck, &good, Some(&diff(&["emp(Mary)"], &[])))
            .0
            .is_none());
    }

    #[test]
    fn rule_chains_to_triggers_force_full_check() {
        // A rule derives emp from hired: asserting hired(Sue) violates
        // the emp constraint through a derived atom, which is in the
        // model diff — the specialization sees it without a full check.
        let src = "ss(Mary, n1)\nemp(Mary)\nforall x. hired(x) -> emp(x)";
        let ics = [EMP_SS, FD];
        assert_eq!(commit(src, &ics, &["+hired(Sue)"]), rejected(EMP_SS));
        assert_eq!(commit(src, &ics, &["+emp(Sue)"]), rejected(EMP_SS));
        assert_eq!(
            commit(src, &ics, &["+hired(Sue)", "+ss(Sue, n2)"]),
            Ok(routed(2, 0))
        );
    }

    #[test]
    fn irrelevant_rules_keep_the_specialization() {
        // Rules whose heads never reach a trigger predicate add derived
        // atoms nothing matches: the FD stays skipped.
        let src = "ss(Mary, n1)\nemp(Mary)\nforall x. emp(x) -> person(x)\nss(Sue, n2)";
        assert_eq!(
            commit(src, &[EMP_SS, FD], &["+emp(Sue)"]),
            Ok(routed(1, 1)),
            "only the emp constraint is checked"
        );
    }

    #[test]
    fn self_recursive_trigger_pred_forces_full_check() {
        // A symmetry rule re-derives the trigger predicate itself: the
        // asserted fact is not the only new trigger atom, and the derived
        // one is in the diff.
        let src = "ss(Mary, n1)\nforall x, y. ss(x, y) -> ss(y, x)";
        assert_eq!(commit(src, &[FD], &["+ss(Sue, n2)"]), Ok(routed(1, 0)));
        // ss(n1, Joe) derives ss(Joe, n1): n1 already numbers Mary.
        assert_eq!(commit(src, &[FD], &["+ss(n1, Joe)"]), rejected(FD));
    }

    #[test]
    fn engine_only_rules_are_visible_to_routing() {
        // `forall x, z. p(x) -> q(x)` fails the range restriction of a
        // Definition 6.3 rule (`epilog-semantics`'s `rules` omits it) —
        // but the Datalog engine evaluates it, and what it derives is in
        // the model diff.
        let src = "forall x, z. p(x) -> q(x)";
        let ic = "forall x. K q(x) -> K r(x)";
        assert_eq!(commit(src, &[ic], &["+p(a)"]), rejected(ic));
        assert_eq!(commit(src, &[ic], &["+p(a)", "+r(a)"]), Ok(routed(1, 0)));
    }

    #[test]
    fn k_scoped_atoms_route_on_the_model_diff() {
        // Atoms under `K ∃`, `∃ K` and `K ∨` flip a constraint like any
        // other: each of these commits would violate its constraint.
        let cases = [
            (
                "emp(a)",
                "forall x. K emp(x) & K (exists y. p(x, y)) -> K q(x)",
                "+p(a, b)",
            ),
            (
                "emp(a)",
                "forall x. K emp(x) & (exists y. K p(x, y)) -> K q(x)",
                "+p(a, b)",
            ),
            (
                "emp(a)",
                "forall x. K emp(x) & K (p(x) | r(x)) -> K q(x)",
                "+r(a)",
            ),
            (
                "emp(a)\np(a)",
                "forall x. K emp(x) -> K (p(x) | r(x))",
                "-p(a)",
            ),
            // Control: the K outside the ∨.
            (
                "emp(a)\np(a)",
                "forall x. K emp(x) -> K p(x) | K r(x)",
                "-p(a)",
            ),
        ];
        for (src, ic, op) in cases {
            let Err(r) = commit_ops(src, &[ic], &[op]) else {
                panic!("{src} {op} must violate {ic}");
            };
            assert_eq!(r.constraint, parse(ic).unwrap());
            assert_eq!(r.witnesses, [ga("emp(a)")], "{ic}");
        }
    }

    #[test]
    fn non_compilable_constraints_recheck_only_themselves() {
        // `K (p(x) ⊃ q(x))` negates p inside its K: not compilable, so
        // that constraint alone goes to the full check.
        let odd = "forall x. K emp(x) -> K (p(x) -> q(x))";
        assert!(!CompiledConstraint::compile(&parse(odd).unwrap()).is_routed());
        let src = "forall x. s(x) & p(x) -> q(x)\nemp(a)\ns(a)\nss(a, n1)";
        assert_eq!(
            commit(src, &[EMP_SS, FD, odd], &["+hobby(a)"]),
            Ok(CheckStats {
                skipped: 2,
                specialized: 0,
                full: 1
            })
        );
        // Without the fact s(a) the rule no longer makes p(a) ⊃ q(a)
        // known — the full check catches what no diff atom would.
        assert_eq!(commit(src, &[odd], &["-s(a)"]), rejected(odd));
    }

    #[test]
    fn prohibition_constraints_compile_and_trigger() {
        // ∀x ¬K bad(x) rewrites to ¬∃x K bad(x): the K-literal indexes it.
        let c = patterns("forall x. ~K bad(x)");
        assert_eq!(preds(&c.on_added), vec![Pred::new("bad", 1)]);
        let ck = compiled(&["forall x. ~K bad(x)"]);
        let prover = Prover::new(Theory::from_text("bad(Joe)").unwrap());
        assert!(check(&ck, &prover, Some(&diff(&["bad(Joe)"], &[])))
            .0
            .is_some());
    }

    #[test]
    fn negative_patterns_extracted_per_shape() {
        // emp→ss: the negated ∃y K ss(x,y) conjunct is a removal trigger.
        assert_eq!(
            preds(&patterns(EMP_SS).on_removed),
            vec![Pred::new("ss", 2)]
        );
        // FD: the negated conjunct is an equality — no removal trigger.
        assert!(patterns(FD).on_removed.is_empty());
        // Prohibition: no negated conjunct at all under the ∃ prefix.
        assert!(patterns("forall x. ~K bad(x)").on_removed.is_empty());
    }

    #[test]
    fn removal_violation_caught_incrementally() {
        let ck = checker();
        // Sue keeps emp but loses her only ss fact: the emp→ss constraint
        // is violated, found through the removal specialization alone.
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)").unwrap());
        let (hit, stats) = check(&ck, &prover, Some(&diff(&[], &["ss(Sue, n2)"])));
        assert!(hit.unwrap().contains("emp"), "emp(Sue) lost its number");
        // The violation short-circuits before the FD is even routed (it
        // would be skipped: a removal never violates an equality).
        assert_eq!(stats, routed(1, 0));
    }

    #[test]
    fn removal_specialization_passes_with_alternative_witness() {
        let ck = checker();
        // Sue has a second number: removing one keeps the constraint.
        let prover = Prover::new(
            Theory::from_text("emp(Mary)\nss(Mary, n1)\nemp(Sue)\nss(Sue, n3)").unwrap(),
        );
        let (hit, stats) = check(&ck, &prover, Some(&diff(&[], &["ss(Sue, n2)"])));
        assert!(hit.is_none(), "ss(Sue, n3) still witnesses the ∃");
        assert_eq!(stats.specialized, 1);
    }

    #[test]
    fn irrelevant_removals_skip_all_constraints() {
        let ck = checker();
        let prover = Prover::new(Theory::from_text("emp(Mary)\nss(Mary, n1)").unwrap());
        // Removing an emp atom can only *satisfy* the emp→ss constraint,
        // and bad/hobby removals touch nothing: all skipped.
        let gone = diff(&[], &["emp(Sue)", "hobby(Mary, chess)", "bad(Joe)"]);
        let (hit, stats) = check(&ck, &prover, Some(&gone));
        assert!(hit.is_none());
        assert_eq!(stats, routed(0, 2), "no removal reaches a negative trigger");
    }

    #[test]
    fn empty_removals_match_the_assert_only_route_exactly() {
        // An assert-only commit's diff is its added atoms with their
        // consequences and an empty removed side; routing it by hand
        // gives the commit's own route.
        let src = "emp(Mary)\nss(Mary, n1)\nss(Sue, n2)\nforall x. emp(x) -> person(x)";
        let by_commit = commit(src, &[EMP_SS, FD], &["+emp(Sue)"]);
        let prover =
            crate::engine::prover_for(Theory::from_text(&format!("{src}\nemp(Sue)")).unwrap());
        let (hit, stats) = check(
            &checker(),
            &prover,
            Some(&diff(&["emp(Sue)", "person(Sue)"], &[])),
        );
        assert!(hit.is_none());
        assert_eq!(by_commit, Ok(stats));
    }

    /// The seven shapes `tests/prop_transactions.rs` draws its pool from:
    /// the paper's three, then an atom under `K ∃`, `∃ K`, a positive
    /// `K ∨` and a negated `K ∨`.
    const POOL: [&str; 7] = [
        EMP_SS,
        FD,
        "forall x. ~K bad(x)",
        "forall x. K hired(x) & K (exists y. hobby(x, y)) -> K person(x)",
        "forall x. K holder(x) & (exists y. K hobby(x, y)) -> K emp(x)",
        "forall x. K holder(x) & K (hired(x) | bad(x)) -> K person(x)",
        "forall x. K hired(x) -> K (emp(x) | bad(x))",
    ];

    /// `ic`'s full check over the least model of the facts `src` lists
    /// (`;`-separated), and how many solver runs it took.
    fn full_check(ic: &str, src: &str) -> (Option<Vec<Atom>>, u64) {
        let prover = crate::engine::prover_for(Theory::from_text(&src.replace(';', "\n")).unwrap());
        assert!(prover.atom_model().is_some(), "{src}");
        let violated = compiled(&[ic])[0].violated(&prover);
        (violated, prover.sat_calls())
    }

    #[test]
    fn every_pool_shape_is_checked_on_the_model_alone() {
        // Per pool shape: a state that violates it, the witnesses it is
        // refused with, and a state that satisfies it.
        let cases = [
            ("emp(a);emp(b);ss(b, n)", "emp(a)", "emp(a);ss(a, n)"),
            (
                "ss(a, m);ss(a, n)",
                "ss(a, m);ss(a, n)",
                "ss(a, m);ss(b, m)",
            ),
            ("bad(a);emp(b)", "bad(a)", "emp(a)"),
            (
                "hired(a);hobby(a, b)",
                "hired(a)",
                "hired(a);hobby(a, b);person(a)",
            ),
            (
                "holder(a);hobby(a, b)",
                "holder(a)",
                "holder(a);hobby(b, a)",
            ),
            ("holder(a);bad(a)", "holder(a)", "holder(a);hired(b)"),
            ("hired(a);hired(b);bad(b)", "hired(a)", "hired(a);emp(a)"),
        ];
        for (ic, (bad, witnesses, good)) in POOL.into_iter().zip(cases) {
            // Each state violates one instance; the FD's two witnesses
            // come in parameter order, which is interning order.
            let (violated, runs) = full_check(ic, bad);
            let mut violated = violated.expect(ic);
            violated.sort_by_key(|a| a.to_string());
            let witnesses: Vec<Atom> = witnesses.split(';').map(ga).collect();
            assert_eq!((violated, runs), (witnesses, 0), "{ic} over {bad:?}");
            assert_eq!(full_check(ic, good), (None, 0), "{ic} over {good:?}");
        }
        // Routed, but `K ∃y ss(x, y)` leaves `x` unbound, and a universal
        // inside `K` is no existence test: `prove` walks the domain.
        let open = "forall x. ~K (exists y. ss(x, y))";
        let (violated, runs) = full_check(open, "ss(a, n)");
        assert_eq!(violated, Some(vec![]));
        assert!(runs > 0);
        let all = "forall x. K emp(x) -> K (forall y. ss(x, y))";
        let (violated, runs) = full_check(all, "emp(a);ss(a, n)");
        assert_eq!(violated, Some(vec![ga("emp(a)")]));
        assert!(runs > 0);
        assert!(compiled(&[open, all]).iter().all(|c| c.is_routed()));
    }

    #[test]
    fn without_a_least_model_prove_names_the_same_witnesses() {
        let c = &compiled(&[EMP_SS])[0];
        // An existential fact leaves the definite fragment: no model.
        let open = crate::engine::prover_for(
            Theory::from_text("emp(a)\nemp(b)\nexists y. ss(b, y)").unwrap(),
        );
        assert!(open.atom_model().is_none());
        assert_eq!(c.violated(&open), Some(vec![ga("emp(a)")]));
        assert!(open.sat_calls() > 0);
        let definite =
            crate::engine::prover_for(Theory::from_text("emp(a)\nemp(b)\nss(b, n)").unwrap());
        assert_eq!(c.violated(&definite), Some(vec![ga("emp(a)")]));
        // The instance a removed `ss(a, n)` seeds is violated too.
        let gone = diff(&[], &["ss(a, n)"]);
        let (hit, stats) = check(&compiled(&[EMP_SS]), &definite, Some(&gone));
        assert_eq!((hit.is_some(), stats), (true, routed(1, 0)));
        assert_eq!(definite.sat_calls(), 0);
    }

    #[test]
    fn a_join_answers_in_prove_order_not_column_order() {
        // A cycle: the tuple first by column 0 is never the one first by
        // column 1, whatever order the parameters were interned in.
        let prover =
            crate::engine::prover_for(Theory::from_text("r(a, b)\nr(b, c)\nr(c, a)").unwrap());
        let ck = compiled(&[
            "forall x, y. K r(x, y) -> K q(x)",
            "forall x, y. K r(y, x) -> K q(x)",
        ]);
        let mut firsts = Vec::new();
        for (c, atom) in ck.iter().zip(["r(x, y)", "r(y, x)"]) {
            // The witness is the instance `prove` answers first.
            let goal = parse(atom).unwrap();
            let first = AnswerIter::new(&prover, &goal).next().unwrap();
            let witness = ga(&goal.bind_free(&first).to_string());
            assert_eq!(c.violated(&prover), Some(vec![witness.clone()]));
            firsts.push(witness);
        }
        // Both name the tuple with the least `x`, which is a different
        // column of the same tuple set.
        assert_ne!(firsts[0], firsts[1]);
    }

    #[test]
    fn uncompilable_constraint_rejected() {
        // A positive knowledge *requirement* is not of the ¬∃ shape.
        let r = CompiledConstraint::compile(&parse("K p").unwrap());
        assert!(!r.is_routed());
    }
}
