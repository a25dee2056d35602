//! Property suite for provenance on demand: on randomized definite
//! programs every model atom's proof tree replays, and after every commit
//! of a random stream `EpistemicDb::why` — one fixpoint of the state asked
//! about — proves every model atom with a proof that replays.

use epilog::core::EpistemicDb;
use epilog::datalog::Program;
use epilog::syntax::formula::Atom;
use epilog::syntax::parse;
use proptest::prelude::*;

const PARAMS: usize = 4;

/// The negation-free rules of the datalog differential suite's pool:
/// definite programs, where the least model's every tuple must afford a
/// proof tree.
const RULES: [&str; 8] = [
    "forall x, y. e(x, y) -> reach(x, y)",
    "forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
    "forall x. f(x) -> q(x)",
    "forall x, y. e(x, y) & f(x) -> q(y)",
    "forall x, y. reach(x, y) & e(x, y) -> direct(x, y)",
    "forall x, y, z. e(x, y) & e(y, z) & e(x, z) -> tri(x, y, z)",
    "forall x. f(x) -> self(x, x)",
    "forall x. f(x) -> tag(x, c0)",
];

fn facts_and_rules(
    edges: &[(usize, usize)],
    units: &[usize],
    rules: impl Iterator<Item = &'static str>,
) -> String {
    let mut src = String::new();
    for (a, b) in edges {
        src.push_str(&format!("e(a{a}, a{b})\n"));
    }
    for a in units {
        src.push_str(&format!("f(a{a})\n"));
    }
    for rule in rules {
        src.push_str(rule);
        src.push('\n');
    }
    src
}

fn definite_program_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0..PARAMS, 0..PARAMS), 0..10),
        proptest::collection::vec(0..PARAMS, 0..5),
        1u16..256,
    )
        .prop_map(|(edges, units, mask)| {
            let rules = RULES
                .iter()
                .enumerate()
                .filter(move |(i, _)| mask & (1 << i) != 0)
                .map(|(_, r)| *r);
            facts_and_rules(&edges, &units, rules)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tuple of a definite least model has a proof tree, every
    /// proof replays (each node's rule actually fires over exactly the
    /// node's premises; every leaf is extensional), and the tree proves
    /// the atom asked about.
    #[test]
    fn every_proof_replays(src in definite_program_text()) {
        let program = Program::from_text(&src).unwrap();
        let (model, _) = program.eval();
        let atoms: Vec<Atom> = model.atoms().collect();
        for (atom, proof) in atoms.iter().zip(program.why(&atoms)) {
            let Some(proof) = proof else {
                return Err(TestCaseError::fail(format!(
                    "no proof for {atom} on:\n{src}"
                )));
            };
            prop_assert_eq!(proof.atom(), atom, "proved the wrong atom on:\n{}", src);
            prop_assert!(proof.replays(&program), "{} does not replay on:\n{}", atom, src);
        }
        // Absent tuples have no proof (why-not).
        let ghost = parse("reach(a0, nowhere)").unwrap();
        if let epilog::syntax::Formula::Atom(g) = ghost {
            prop_assert!(program.why(&[g])[0].is_none());
        }
    }

    /// End-to-end: after every commit of a random assert/retract stream
    /// over `EpistemicDb`, `why` proves every model atom with a proof that
    /// replays against the program the theory now is, and proves nothing
    /// outside the model.
    #[test]
    fn every_commit_proves_every_model_atom(
        batches in proptest::collection::vec(
            (proptest::collection::vec((0..PARAMS, 0..PARAMS), 1..4), 0..2usize),
            1..5,
        ),
    ) {
        let mut db = EpistemicDb::from_text(
            "e(a0, a1)\n\
             forall x, y. e(x, y) -> reach(x, y)\n\
             forall x, y, z. e(x, y) & reach(y, z) -> reach(x, z)",
        )
        .unwrap();
        let ghost = match parse("reach(a0, nowhere)").unwrap() {
            epilog::syntax::Formula::Atom(g) => g,
            other => panic!("not an atom: {other}"),
        };
        for (batch, kind) in &batches {
            let retract = *kind == 1;
            let mut txn = db.transaction();
            for (a, b) in batch {
                let w = parse(&format!("e(a{a}, a{b})")).unwrap();
                txn = if retract { txn.retract(w) } else { txn.assert(w) };
            }
            let _ = txn.commit().unwrap();
            let model = db.prover().atom_model().expect("definite theory");
            let prog = epilog::core::definite_program(db.theory()).unwrap();
            for atom in model.atoms() {
                let Some(proof) = db.why(&atom) else {
                    return Err(TestCaseError::fail(format!("no proof for {atom}")));
                };
                prop_assert_eq!(proof.atom(), &atom);
                prop_assert!(proof.replays(&prog), "{} does not replay", atom);
            }
            prop_assert!(db.why(&ghost).is_none());
        }
    }
}
