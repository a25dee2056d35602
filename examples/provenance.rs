//! Provenance: `why` explanations and self-explaining constraint
//! rejections.
//!
//! `why(atom)` runs the engine's semi-naive fixpoint when asked, notes
//! the round in which each tuple first appeared, and walks a
//! minimal-height derivation tree down to extensional facts, one rule's
//! support query per node — nothing to switch on, nothing kept between
//! questions — and a
//! rejected batch names the violated constraint together with ground
//! witness tuples, whose derivations `Rejection::proofs` computes against
//! the state that was refused: the database explains both what it knows
//! and why it refused to change.
//!
//! Run with: `cargo run --example provenance`

use epilog::prelude::*;

fn main() {
    // A definite program: a chain of edges and the transitive closure.
    let mut db = EpistemicDb::from_text(
        "edge(a, b)
         edge(b, c)
         edge(c, d)
         forall x. forall y. edge(x, y) -> path(x, y)
         forall x. forall y. forall z. edge(x, y) & path(y, z) -> path(x, z)",
    )
    .unwrap();

    // ----- why: a replayable derivation ---------------------------------
    let proof = db.why(&atom("path(a, d)")).expect("in the least model");
    println!("why path(a, d)?");
    for line in proof.render() {
        println!("  {line}");
    }
    // Three hops: the recursive rule twice over the base case.
    assert_eq!(proof.height(), 3);
    assert_eq!(proof.atom(), &atom("path(a, d)"));

    // ----- why not: absence has no proof --------------------------------
    assert!(db.why(&atom("path(d, a)")).is_none());
    println!("\nwhy path(d, a)? nothing — not in the least model\n");

    // ----- every state answers for itself -------------------------------
    let report = db
        .transaction()
        .assert(parse("edge(d, e)").unwrap())
        .commit()
        .unwrap();
    assert_eq!(report.asserted, 1);
    let proof = db
        .why(&atom("path(a, e)"))
        .expect("in the committed least model");
    println!(
        "after committing edge(d, e): path(a, e) proved with {} nodes\n",
        proof.size()
    );

    // ----- rejections explain themselves --------------------------------
    // Forbid cycles, then try to close one: the batch is rejected, and
    // the error carries the constraint, the ground witnesses, and the
    // rejected state's program, from which `proofs()` derives a proof
    // tree for each witness.
    db.add_constraint(parse("forall x. ~K path(x, x)").unwrap())
        .unwrap();
    let err = db
        .transaction()
        .assert(parse("edge(e, a)").unwrap())
        .commit()
        .unwrap_err();
    println!("committing edge(e, a): {err}\n");
    match err {
        DbError::ConstraintViolated(rej) => {
            println!("violated constraint: {}", rej.constraint);
            assert!(!rej.witnesses.is_empty(), "ground witnesses extracted");
            let proofs = rej.proofs();
            assert_eq!(proofs.len(), rej.witnesses.len(), "every witness proved");
            for (w, p) in rej.witnesses.iter().zip(&proofs) {
                assert_eq!(p.atom(), w);
                println!("witness {w}:");
                for line in p.render() {
                    println!("  {line}");
                }
            }
        }
        other => panic!("expected a constraint violation, got {other}"),
    }

    // The rejected batch left no trace: the cycle it would have closed
    // has no proof in the state that stayed.
    assert!(db.why(&atom("path(a, a)")).is_none());
    println!("\nrejected batch left no trace: path(a, a) has no proof");
}

fn atom(src: &str) -> epilog::syntax::formula::Atom {
    match parse(src).unwrap() {
        Formula::Atom(a) => a,
        other => panic!("expected an atom, got {other}"),
    }
}
