//! Compiled rule plans for bottom-up evaluation.
//!
//! A [`RulePlan`] is compiled once per rule before the fixpoint starts and
//! reused every round (or, via `epilog-core`'s cross-commit plan cache,
//! across many fixpoints):
//!
//! * the rule's variables are numbered into dense slots, so a binding
//!   environment is a flat `Vec<Option<Param>>` instead of a cloned
//!   `HashMap<Var, Param>` per candidate match;
//! * the body atoms are reordered by estimated intermediate size, read
//!   from the statistics of the database the rule is compiled against,
//!   with each step's selection shape precomputed — which makes the step
//!   a lookup (every column bound), an index probe or a scan
//!   ([`epilog_storage::ConjunctionPlan`]);
//! * one plan variant exists per body atom, designating it as the
//!   **delta position** for semi-naive rounds, plus a full variant used by
//!   naive evaluation and the first semi-naive round;
//! * the head is compiled to an [`AtomTemplate`] grounded directly from
//!   the slot environment.
//!
//! [`RulePlan::explain`] renders the chosen literal order, how each step
//! finds its candidates, and estimated cardinalities — the debugging
//! surface for ordering regressions.

use crate::program::Rule;
use epilog_storage::{AtomTemplate, ConjunctionPlan, Database, PatTerm, PlanStats, SlotMap};
use epilog_syntax::{Param, Pred};
use std::fmt::Write as _;

/// A rule compiled for bottom-up evaluation.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// The head, grounded from the slot environment on each derivation.
    pub head: AtomTemplate,
    /// The variable numbering shared by every variant.
    pub slots: SlotMap,
    /// Join over the whole body against the total database.
    pub full: ConjunctionPlan,
    /// Per body atom: its predicate (for empty-delta skipping) and
    /// the variant joining that literal against the delta first.
    pub variants: Vec<(Pred, ConjunctionPlan)>,
    /// The body compiled as a **support query**: the head's
    /// slots are prebound (the caller seeds them from a ground head tuple
    /// via [`RulePlan::bind_head`]), so running it answers "does any body
    /// match still derive this tuple?" without a full firing. Used by the
    /// deletion fixpoint's re-derivation phase.
    pub support: ConjunctionPlan,
}

impl RulePlan {
    /// Compile a rule, reading literal order off the live relation
    /// statistics of `stats` (see
    /// [`ConjunctionPlan::compile`]) — typically the program's EDB, or,
    /// on the cross-commit cache path, the theory's current least model,
    /// which also covers intensional relations.
    pub fn compile(rule: &Rule, stats: &Database) -> RulePlan {
        let mut slots = SlotMap::new();
        let body = &rule.body;
        // One statistics view shared by the full plan and every delta
        // variant, so per-column distinct counts are collected once per
        // rule rather than once per variant.
        let view = PlanStats::new(stats);
        let full = ConjunctionPlan::compile(body, &mut slots, None, &view);
        let variants = (0..body.len())
            .map(|d| {
                (
                    body[d].pred,
                    ConjunctionPlan::compile(body, &mut slots, Some(d), &view),
                )
            })
            .collect();
        let head = AtomTemplate::compile(&rule.head, &mut slots);
        // The support variant is compiled after the head so the head's
        // slots exist: they are the prebound seed of every support query.
        let prebound: Vec<usize> = head
            .args
            .iter()
            .filter_map(|a| match a {
                PatTerm::Slot(s) => Some(*s),
                PatTerm::Const(_) => None,
            })
            .collect();
        let support = ConjunctionPlan::compile_support(body, &mut slots, &prebound, &view);
        RulePlan {
            head,
            slots,
            full,
            variants,
            support,
        }
    }

    /// Seed `env` with the head bindings a ground `tuple` induces: head
    /// constants must match, repeated head slots must agree. Returns
    /// `false` (with `env` partially written) when the tuple cannot be an
    /// instance of this head. On `true`, `env` is ready to drive the
    /// [`RulePlan::support`] plan.
    pub fn bind_head(&self, tuple: &[Param], env: &mut [Option<Param>]) -> bool {
        for (arg, p) in self.head.args.iter().zip(tuple) {
            match arg {
                PatTerm::Const(c) => {
                    if c != p {
                        return false;
                    }
                }
                PatTerm::Slot(s) => match env[*s] {
                    Some(prev) if prev != *p => return false,
                    _ => env[*s] = Some(*p),
                },
            }
        }
        true
    }

    /// Render an atom template back to source-ish text using the plan's
    /// slot-numbered variable names.
    fn render(&self, t: &AtomTemplate) -> String {
        let args: Vec<String> = t
            .args
            .iter()
            .map(|a| match a {
                PatTerm::Const(p) => p.name(),
                PatTerm::Slot(s) => self.slots.vars()[*s].name(),
            })
            .collect();
        if args.is_empty() {
            t.pred.name()
        } else {
            format!("{}({})", t.pred.name(), args.join(", "))
        }
    }

    fn explain_plan(&self, out: &mut String, label: &str, plan: &ConjunctionPlan) {
        let _ = writeln!(out, "  {label}:");
        for (i, step) in plan.steps().iter().enumerate() {
            let how = match step.index_col {
                _ if step.is_lookup() => "lookup".to_string(),
                Some(c) => format!("probe col {c}"),
                None => "scan".to_string(),
            };
            let delta = if step.from_delta { " [delta]" } else { "" };
            let _ = writeln!(
                out,
                "    {}. {}{delta}  ({how}, est {}/row)",
                i + 1,
                self.render(&step.template),
                step.est
            );
        }
    }

    /// Pretty-print the compiled plan: the head, the chosen literal order
    /// of the full variant and of every delta variant, whether each step
    /// is a lookup, an index probe (and of which column) or a scan, and
    /// the planner's estimated matches per outer row. The
    /// debugging surface for literal-ordering regressions.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(&mut out, "plan for {}:", self.render(&self.head));
        self.explain_plan(&mut out, "full", &self.full);
        for (pred, v) in &self.variants {
            self.explain_plan(&mut out, &format!("delta[{}]", pred.name()), v);
        }
        self.explain_plan(&mut out, "support", &self.support);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use epilog_storage::PatTerm;
    use epilog_syntax::Var;

    fn plan_of(src: &str) -> RulePlan {
        let p = Program::from_text(src).unwrap();
        RulePlan::compile(&p.rules[0], &p.edb)
    }

    #[test]
    fn slots_are_dense_and_shared() {
        let plan = plan_of("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        assert_eq!(plan.slots.len(), 3);
        // The head reuses the body's slots.
        let x = plan.slots.get(Var::new("x")).unwrap();
        let z = plan.slots.get(Var::new("z")).unwrap();
        assert_eq!(plan.head.args, vec![PatTerm::Slot(x), PatTerm::Slot(z)]);
    }

    #[test]
    fn one_variant_per_body_literal() {
        let plan = plan_of("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        assert_eq!(plan.variants.len(), 2);
        assert_eq!(plan.variants[0].0, Pred::new("e", 2));
        assert_eq!(plan.variants[1].0, Pred::new("t", 2));
        for (_, v) in &plan.variants {
            assert!(v.steps()[0].from_delta, "delta literal joins first");
            assert!(v.steps()[1..].iter().all(|s| !s.from_delta));
        }
    }

    #[test]
    fn explain_renders_order_strategy_and_estimates() {
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("q(k{}, val{i})\nbig(k{}, val{i})\n", i % 2, i % 2));
        }
        src.push_str("forall x, y. q(x, y) & big(x, y) -> hit(x, y)\n");
        let p = Program::from_text(&src).unwrap();
        let plan = RulePlan::compile(&p.rules[0], &p.edb);
        let text = plan.explain();
        assert!(text.contains("plan for hit(x, y)"), "{text}");
        assert!(text.contains("full:"), "{text}");
        assert!(text.contains("1. q(x, y)  (scan, est 8/row)"), "{text}");
        assert!(text.contains("2. big(x, y)  (lookup, est 0/row)"), "{text}");
        assert!(text.contains("delta[q]"), "{text}");
        assert!(text.contains("[delta]"), "{text}");
        // The support plan has the head prebound: both steps are lookups.
        assert!(text.contains("support:\n    1. q(x, y)  (lookup"), "{text}");
        // Against empty statistics every estimate is 1; how a step finds
        // its candidates is its shape, so the lookup stays.
        let blind = RulePlan::compile(&p.rules[0], &Database::new()).explain();
        assert!(blind.contains("est 1/row"), "{blind}");
        assert!(
            blind.contains("2. big(x, y)  (lookup, est 1/row)"),
            "{blind}"
        );
    }

    #[test]
    fn support_plan_answers_alternative_derivations() {
        let plan = plan_of("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)");
        let mut db = Database::new();
        for f in ["e(a, b)", "t(b, c)", "e(a, d)"] {
            match epilog_syntax::parse(f).unwrap() {
                epilog_syntax::Formula::Atom(a) => db.insert(&a),
                other => panic!("not an atom: {other}"),
            };
        }
        let supported = |t: &[Param], db: &Database| {
            let mut env = vec![None; plan.slots.len()];
            assert!(plan.bind_head(t, &mut env));
            let mut found = false;
            plan.support
                .for_each_match(db, None, &mut env, &mut |_| found = true);
            found
        };
        let (a, c, d) = (Param::new("a"), Param::new("c"), Param::new("d"));
        assert!(supported(&[a, c], &db), "e(a,b) & t(b,c) supports t(a,c)");
        assert!(!supported(&[a, d], &db), "no body derives t(a,d)");
    }

    #[test]
    fn bind_head_rejects_mismatched_constants_and_repeats() {
        let plan = plan_of("forall x. e(x, x) -> loop(x)");
        let mut env = vec![None; plan.slots.len()];
        assert!(plan.bind_head(&[Param::new("a")], &mut env));
        assert_eq!(
            env[plan.slots.get(Var::new("x")).unwrap()],
            Some(Param::new("a"))
        );
        // A constant head column must match the tuple exactly.
        let qplan = plan_of("forall x. e(x) -> mark(x, gold)");
        let mut env = vec![None; qplan.slots.len()];
        assert!(qplan.bind_head(&[Param::new("a"), Param::new("gold")], &mut env));
        let mut env = vec![None; qplan.slots.len()];
        assert!(!qplan.bind_head(&[Param::new("a"), Param::new("lead")], &mut env));
        // A repeated head slot must agree across columns.
        let rplan = plan_of("forall x. p(x) -> d(x, x)");
        let mut env = vec![None; rplan.slots.len()];
        assert!(rplan.bind_head(&[Param::new("a"), Param::new("a")], &mut env));
        let mut env = vec![None; rplan.slots.len()];
        assert!(!rplan.bind_head(&[Param::new("a"), Param::new("b")], &mut env));
    }

    #[test]
    fn body_less_rule_has_no_variants() {
        let p = Program::from_text("forall x. p(x) -> q(x)").unwrap();
        // Grab a fact-like rule by constructing one directly.
        let rule = Rule {
            head: p.rules[0].head.clone(),
            body: vec![],
        };
        // An unsafe rule on its own, but plan compilation is shape-only.
        let plan = RulePlan::compile(&rule, &p.edb);
        assert!(plan.variants.is_empty());
        assert!(plan.full.steps().is_empty());
    }
}
