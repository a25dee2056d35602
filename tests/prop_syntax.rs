//! Property tests for the syntax layer: parser/printer round-trips and
//! semantic equivalence of every transformation, checked against the
//! model-theoretic oracle.

use epilog::prelude::*;
use epilog::semantics::flatten_k45;
use epilog::semantics::ModelSet;
use epilog::syntax::transform::{admissible_constraint, kernel};
use epilog::syntax::{nnf, Atom};
use proptest::prelude::*;

const PARAMS: [&str; 2] = ["a", "b"];

/// A random FOPCE formula over unary p/q and the parameters/one variable.
fn fopce() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        (0..2usize, 0..2usize).prop_map(|(pr, pa)| {
            parse(&format!("{}({})", ["p", "q"][pr], PARAMS[pa])).unwrap()
        }),
        (0..2usize, 0..2usize)
            .prop_map(|(a, b)| { parse(&format!("{} = {}", PARAMS[a], PARAMS[b])).unwrap() }),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            inner.clone().prop_map(|a| {
                // Quantify a fresh variable over a disjunct with a
                // variable atom so quantifiers are exercised.
                let x = Var::new("x");
                Formula::forall(x, Formula::or(Formula::atom("p", vec![x.into()]), a))
            }),
            inner.clone().prop_map(|a| {
                let x = Var::new("x");
                Formula::exists(x, Formula::and(Formula::atom("q", vec![x.into()]), a))
            }),
        ]
    })
}

/// A random KFOPCE sentence: a FOPCE core with some K's sprinkled in.
fn kfopce() -> impl Strategy<Value = Formula> {
    fopce().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::know),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            inner.clone().prop_map(Formula::not),
        ]
    })
}

/// A random ground term whose parameter pool deliberately includes names
/// that collide with the variable convention (`x`, `y1`) — the printer
/// must `$`-escape those — plus a primed name exercising the extended
/// identifier charset.
fn ground_term() -> impl Strategy<Value = Term> {
    (0..6usize).prop_map(|i| {
        let name = ["a", "b", "John", "x", "y1", "n'1"][i];
        Param::new(name).into()
    })
}

/// A random FOPCE *database* sentence: every shape `Theory::assert`
/// accepts — ground atoms (arity 0‥3), ground (in)equalities, boolean
/// combinations, and quantified sentences — closed by construction. This
/// is the correctness floor for the WAL/snapshot text format: whatever a
/// database can hold must survive `parse(display(s))`.
fn db_sentence() -> impl Strategy<Value = Formula> {
    let atom = (0..3usize, proptest::collection::vec(ground_term(), 0..3)).prop_map(|(p, ts)| {
        let name = ["p", "q", "Teach"][p];
        Formula::atom(name, ts)
    });
    let leaf = prop_oneof![
        4 => atom,
        1 => (ground_term(), ground_term()).prop_map(|(a, b)| Formula::Eq(a, b)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            inner.clone().prop_map(|a| {
                let x = Var::new("x");
                Formula::forall(x, Formula::implies(Formula::atom("p", vec![x.into()]), a))
            }),
            inner.clone().prop_map(|a| {
                let y = Var::new("y");
                Formula::exists(y, Formula::and(Formula::atom("q", vec![y.into()]), a))
            }),
            inner.clone().prop_map(|a| {
                // A binder colliding with the parameter pool's `a`: any
                // parameter named `a` inside must print `$`-escaped.
                let v = Var::new("a");
                Formula::exists(v, Formula::and(Formula::atom("p", vec![v.into()]), a))
            }),
        ]
    })
}

/// Names that strain the printer: spelled like variables
/// (printed `$x`), like keywords, or with the identifier charset's `'`,
/// `#` and `_`.
const TRICKY: [&str; 12] = [
    "a", "John", "x", "y12", "z", "n'1", "w#3", "_u", "K", "forall", "some", "all",
];

/// A random ground atom, arity 0‥4, predicate and parameters both drawn
/// from [`TRICKY`] — so `K(a)`, `forall`, `x($x)` all occur.
fn ground_atom() -> impl Strategy<Value = Atom> {
    (
        0..TRICKY.len(),
        proptest::collection::vec(0..TRICKY.len(), 0..5),
    )
        .prop_map(|(p, ts)| {
            let terms: Vec<Term> = ts.iter().map(|&t| Param::new(TRICKY[t]).into()).collect();
            Atom::new(Pred::new(TRICKY[p], terms.len()), terms)
        })
}

/// One step of the `Theory`-as-a-set model test. The first field picks
/// which of two theories it lands on; a fork overwrites the other one
/// with a clone of this one.
#[derive(Debug, Clone)]
enum SetOp {
    Assert(usize, usize),
    Retract(usize, usize),
    Fork(usize),
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    let op = (0..5usize, 0..2usize, 0..SENTENCES.len()).prop_map(|(kind, side, w)| match kind {
        0 | 1 => SetOp::Assert(side, w),
        2 | 3 => SetOp::Retract(side, w),
        _ => SetOp::Fork(side),
    });
    proptest::collection::vec(op, 0..40)
}

/// A small pool, so asserts repeat and retracts hit.
const SENTENCES: [&str; 8] = [
    "p(a)",
    "p(b)",
    "q(a, b)",
    "p($x)",
    "r",
    "p(a) | p(b)",
    "exists x. q(x, a)",
    "forall x. p(x) -> q(x, x)",
];

fn oracle() -> ModelSet {
    // An arbitrary nonempty theory over the vocabulary; equivalences must
    // hold in *every* (W, 𝒮), so we check truth pointwise over all worlds
    // of several model sets.
    let theory = Theory::from_text("p(a) | q(b)").unwrap();
    let universe: Vec<Param> = PARAMS.iter().map(|n| Param::new(n)).collect();
    ModelSet::models(&theory, &universe, &[Pred::new("p", 1), Pred::new("q", 1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print ∘ parse = id (up to reprinting).
    #[test]
    fn parse_print_roundtrip(w in kfopce()) {
        let printed = w.to_string();
        let reparsed = parse(&printed).unwrap();
        prop_assert_eq!(
            reparsed.to_string(),
            printed.clone(),
            "unstable printing for {}", printed
        );
        prop_assert_eq!(reparsed, w);
    }

    /// print ∘ parse = id, *structurally*, for every sentence form a
    /// database can hold — including parameters whose names collide with
    /// the variable convention (printed `$`-escaped). The WAL and
    /// snapshot formats of `epilog-persist` serialize sentences through
    /// `Display` and read them back through `parse`, so this property is
    /// their correctness floor.
    #[test]
    fn db_sentences_roundtrip_structurally(w in db_sentence()) {
        prop_assert!(w.is_sentence(), "generator must produce sentences");
        let reparsed = parse(&w.to_string()).unwrap();
        prop_assert_eq!(&reparsed, &w, "print/parse changed {}", w.to_string());
    }

    /// Theory-level round-trip: a theory built from db sentences reprints
    /// and reparses to the same theory, sentence for sentence, in order —
    /// the snapshot format's contract.
    #[test]
    fn db_theories_roundtrip(ws in proptest::collection::vec(db_sentence(), 0..8)) {
        let theory = Theory::new(ws).unwrap();
        let reparsed = Theory::from_text(&theory.to_string()).unwrap();
        // Not just equal: identical sentence order (replay determinism).
        prop_assert_eq!(reparsed.sentences(), theory.sentences());
    }

    /// Every symbol kind prints its bare name, width and fill ignored,
    /// with the parameter escape only in term position — byte for byte
    /// what the allocating printer wrote.
    #[test]
    fn symbols_print_their_names(a in ground_atom(), v in 0..TRICKY.len()) {
        let escaped = |name: &str| {
            let conventional = name.starts_with(['u', 'v', 'w', 'x', 'y', 'z'])
                && name[1..].bytes().all(|b| b.is_ascii_digit());
            format!("{}{name}", if conventional { "$" } else { "" })
        };
        let pred = a.pred.name();
        prop_assert_eq!(a.pred.to_string(), pred.clone());
        prop_assert_eq!(format!("{:>9}|{:?}", a.pred, a.pred), format!("{pred}|{pred}/{}", a.terms.len()));
        let mut args = Vec::new();
        for t in &a.terms {
            let p = t.as_param().unwrap();
            prop_assert_eq!(format!("{p}|{p:?}|{p:<7}"), format!("{0}|{0}|{0}", p.name()));
            prop_assert_eq!(format!("{t}|{t:*^9}"), format!("{0}|{0}", escaped(&p.name())));
            args.push(escaped(&p.name()));
        }
        let printed = if args.is_empty() { pred } else { format!("{pred}({})", args.join(", ")) };
        prop_assert_eq!(a.to_string(), printed.clone());
        prop_assert_eq!(Formula::Atom(a).to_string(), printed);
        let var = Var::new(TRICKY[v]);
        prop_assert_eq!(format!("{var}|{var:?}|{var:>6}"), format!("{0}|?{0}|{0}", TRICKY[v]));
        prop_assert_eq!(Term::Var(var).to_string(), TRICKY[v]);
    }

    /// `Theory` is a set with a memory of insertion order: under random
    /// asserts, retracts and forks it lists, contains and compares exactly
    /// as a plain `Vec<Formula>` with a linear duplicate check does, and a
    /// clone goes its own way once either side changes.
    #[test]
    fn theory_behaves_as_an_ordered_set(ops in set_ops()) {
        let pool: Vec<Formula> = SENTENCES.iter().map(|s| parse(s).unwrap()).collect();
        let mut theories = [Theory::empty(), Theory::empty()];
        let mut lists: [Vec<Formula>; 2] = [Vec::new(), Vec::new()];
        for op in ops {
            match op {
                SetOp::Assert(i, w) => {
                    let w = &pool[w];
                    theories[i].assert(w.clone()).unwrap();
                    if !lists[i].contains(w) {
                        lists[i].push(w.clone());
                    }
                }
                SetOp::Retract(i, w) => {
                    let w = &pool[w];
                    let was_there = lists[i].contains(w);
                    lists[i].retain(|s| s != w);
                    prop_assert_eq!(theories[i].retract(w), was_there);
                }
                SetOp::Fork(i) => {
                    theories[1 - i] = theories[i].clone();
                    lists[1 - i] = lists[i].clone();
                }
            }
            for (theory, list) in theories.iter().zip(&lists) {
                let listed: Vec<&Formula> = theory.sentences().iter().map(|s| &**s).collect();
                prop_assert_eq!(listed, list.iter().collect::<Vec<_>>());
                prop_assert_eq!(theory.len(), list.len());
                for w in &pool {
                    prop_assert_eq!(theory.contains(w), list.contains(w), "contains {}", w);
                }
                prop_assert_eq!(&Theory::new(list.clone()).unwrap(), theory);
            }
            prop_assert_eq!(theories[0] == theories[1], lists[0] == lists[1]);
        }
    }

    /// kernel() preserves truth in every world of the oracle's model set.
    #[test]
    fn kernel_is_equivalent(w in kfopce()) {
        prop_assume!(w.is_sentence());
        let ms = oracle();
        let k = kernel(&w);
        for i in 0..ms.worlds().len() {
            prop_assert_eq!(ms.truth(&w, i), ms.truth(&k, i), "kernel broke {}", w);
        }
    }

    /// nnf() preserves FOPCE truth.
    #[test]
    fn nnf_is_equivalent(w in fopce()) {
        prop_assume!(w.is_sentence());
        let ms = oracle();
        let n = nnf(&w);
        for i in 0..ms.worlds().len() {
            prop_assert_eq!(ms.truth(&w, i), ms.truth(&n, i), "nnf broke {}", w);
        }
        // And NNF really is negation-normal: no ¬ above a non-atom.
        for s in n.subformulas() {
            if let Formula::Not(inner) = s {
                prop_assert!(
                    matches!(inner.as_ref(), Formula::Atom(_) | Formula::Eq(_, _)),
                    "negation not pushed to a literal in {}", n
                );
            }
        }
    }

    /// The admissible rewrite of a constraint (kernel, double-negation
    /// elimination, renaming apart) preserves truth.
    #[test]
    fn admissible_constraint_is_equivalent(w in kfopce()) {
        prop_assume!(w.is_sentence());
        let ms = oracle();
        let a = admissible_constraint(&w);
        for i in 0..ms.worlds().len() {
            prop_assert_eq!(ms.truth(&w, i), ms.truth(&a, i), "rewrite broke {}", w);
        }
    }

    /// flatten_k45 preserves truth under the weak-S5 semantics.
    #[test]
    fn flatten_k45_is_equivalent(w in kfopce()) {
        prop_assume!(w.is_sentence());
        let ms = oracle();
        let f = flatten_k45(&w);
        for i in 0..ms.worlds().len() {
            prop_assert_eq!(ms.truth(&w, i), ms.truth(&f, i), "flatten broke {}", w);
        }
    }

    /// rename_apart is alpha-equivalence: truth is preserved and the
    /// quantified variables come out distinct.
    #[test]
    fn rename_apart_is_alpha(w in kfopce()) {
        prop_assume!(w.is_sentence());
        let ms = oracle();
        let r = w.rename_apart();
        let qv = r.quantified_vars();
        let mut dedup = qv.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(qv.len(), dedup.len(), "{} still repeats a variable", r);
        for i in 0..ms.worlds().len() {
            prop_assert_eq!(ms.truth(&w, i), ms.truth(&r, i), "rename broke {}", w);
        }
    }

    /// Safety is decidable and stable under printing (a regression guard
    /// for the classifier's interplay with the printer).
    #[test]
    fn classification_stable_under_roundtrip(w in kfopce()) {
        let reparsed = parse(&w.to_string()).unwrap();
        prop_assert_eq!(is_safe(&w), is_safe(&reparsed));
        prop_assert_eq!(is_admissible(&w), is_admissible(&reparsed));
        prop_assert_eq!(is_subjective(&w), is_subjective(&reparsed));
    }

    /// nnf() is idempotent: a formula already in negation normal form is
    /// a fixpoint, so the transform is a true normalizer (not merely an
    /// equivalence-preserving rewrite).
    #[test]
    fn nnf_is_idempotent(w in fopce()) {
        let once = nnf(&w);
        let twice = nnf(&once);
        prop_assert_eq!(&twice, &once, "nnf not idempotent on {}", w);
    }

    /// flatten_k45() is idempotent: its output has no remaining
    /// K-over-conjunction, K-over-subjective, or double-negation redexes,
    /// so a second pass must be the identity.
    #[test]
    fn flatten_k45_is_idempotent(w in kfopce()) {
        let once = flatten_k45(&w);
        let twice = flatten_k45(&once);
        prop_assert_eq!(&twice, &once, "flatten_k45 not idempotent on {}", w);
    }
}
