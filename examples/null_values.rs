//! Null values through the epistemic lens.
//!
//! The paper (§1, §8, and Reiter's JACM 1986 work it cites) treats a null
//! value as an individual *known to exist but not known to be any
//! particular parameter* — exactly what `∃x ss(Mary, x)` expresses. The
//! `K` operator then distinguishes, without any special null machinery:
//!
//! * `K ∃y ss(Mary, y)`  — Mary has a number on file (possibly a null);
//! * `∃y K ss(Mary, y)`  — Mary's number is actually *known*.
//!
//! This example runs a personnel database through the distinctions,
//! including the interaction of nulls with functional dependencies and
//! with the closed-world assumption.
//!
//! Run with: `cargo run --example null_values`

use epilog::prelude::*;

fn main() {
    let db = EpistemicDb::from_text(
        "emp(Mary)
         emp(Sue)
         emp(Ann)
         ss(Mary, n1)
         exists y. ss(Sue, y)         % Sue's number: a null
         ss(Ann, n2) | ss(Ann, n3)    % Ann's number: one of two candidates",
    )
    .unwrap();

    println!("== Known numbers vs numbers known to exist ==\n");
    for who in ["Mary", "Sue", "Ann"] {
        let exists_k = db.ask(&parse(&format!("K (exists y. ss({who}, y))")).unwrap());
        let known = db.ask(&parse(&format!("exists y. K ss({who}, y)")).unwrap());
        println!("  {who:<5} number on file: {exists_k:<8} number known: {known}");
    }
    // Mary: both yes. Sue: on file but not known. Ann: on file (the
    // disjunction guarantees existence) but not known.
    assert_eq!(
        db.ask(&parse("exists y. K ss(Mary, y)").unwrap()),
        Answer::Yes
    );
    assert_eq!(
        db.ask(&parse("exists y. K ss(Sue, y)").unwrap()),
        Answer::No
    );
    assert_eq!(
        db.ask(&parse("K (exists y. ss(Ann, y))").unwrap()),
        Answer::Yes
    );
    assert_eq!(
        db.ask(&parse("exists y. K ss(Ann, y)").unwrap()),
        Answer::No
    );

    println!("\n== The weak constraint tolerates nulls ==\n");
    let weak = parse("forall x. K emp(x) -> K (exists y. ss(x, y))").unwrap();
    let strong = parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap();
    println!("  weak   (number on file):  {}", db.ask(&weak));
    println!("  strong (number known):    {}", db.ask(&strong));
    assert_eq!(db.ask(&weak), Answer::Yes);
    assert_eq!(db.ask(&strong), Answer::No);

    println!("\n== Nulls and the functional dependency ==\n");
    // The FD of Example 3.5 constrains *known* numbers only, so nulls and
    // disjunctive values never trigger it.
    let fd = parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap();
    println!("  FD over known numbers: {}", db.ask(&fd));
    assert_eq!(db.ask(&fd), Answer::Yes);

    println!("\n== Nulls break the naive CWA ==\n");
    // Closure({∃y ss(Sue,y), …}) is unsatisfiable: no particular atom
    // ss(Sue, p) is entailed, so the closure denies them all while Σ
    // insists one holds — the precise sense in which classical CWA cannot
    // handle nulls (footnote 10 of the paper).
    let closed = ClosedDb::new(db.prover());
    println!(
        "  Closure(Σ) satisfiable? {}  (Σ contains a null and a disjunction)",
        closed.satisfiable()
    );
    assert!(!closed.satisfiable());

    // Against a null-free projection of the database, CWA behaves.
    let definite = EpistemicDb::from_text("emp(Mary)\nss(Mary, n1)").unwrap();
    let c = ClosedDb::new(definite.prover());
    println!(
        "  null-free projection:   satisfiable = {}, knows-whether everything = {}",
        c.satisfiable(),
        c.ask(&parse("forall x, y. K ss(x, y) | K ~ss(x, y)").unwrap())
    );
    assert!(c.satisfiable());
}
