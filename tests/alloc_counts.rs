//! Allocation counts of the paths every fact crosses, as a guard: a
//! per-thread counting allocator tallies what one operation asks of the
//! heap — allocations (a `realloc` counts as one) and the bytes they
//! request — and each count is bounded by what this tree makes plus 2 %,
//! so a change that adds allocations to these paths shows here.
//! The counts print with `--nocapture`.
//!
//! Everything runs in one test, in a fixed order, so the process-global
//! symbol table (whose first sight of a name allocates) is in the same
//! state at each measurement on every run: the counts are exact, not
//! sampled.

use epilog::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the calling thread has asked of the heap so far.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    allocs: u64,
    bytes: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, bytes: 0 }) };
}

/// The system allocator, counting each allocation and reallocation on the
/// thread that asks for it.
struct Counting;

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = TALLY.try_with(|t| {
        let Tally {
            allocs,
            bytes: total,
        } = t.get();
        t.set(Tally {
            allocs: allocs + 1,
            bytes: total + bytes as u64,
        });
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `op`'s result and what it asked of the heap on this thread.
fn counted<T>(op: impl FnOnce() -> T) -> (T, Tally) {
    let before = TALLY.with(Cell::get);
    let out = op();
    let after = TALLY.with(Cell::get);
    let spent = Tally {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
    };
    (out, spent)
}

/// Print `what`'s tally and check it against `bound` allocations (see
/// [`counts`]).
fn guard(what: &str, spent: Tally, bound: u64) {
    println!(
        "{what:<48} {:>7} allocations {:>9} bytes (bound {bound})",
        spent.allocs, spent.bytes
    );
    assert!(
        spent.allocs <= bound,
        "{what}: {} allocations, bound {bound}",
        spent.allocs
    );
}

fn f(src: &str) -> Formula {
    parse(src).unwrap()
}

const CLOSURE_RULES: &str =
    "forall x, y. e(x, y) -> t(x, y)\nforall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n";

/// The 30 edges of chain `c`.
fn chain(c: usize) -> Vec<Formula> {
    (0..30)
        .map(|i| f(&format!("e(s{c}n{i}, s{c}n{})", i + 1)))
        .collect()
}

#[test]
fn the_paths_every_fact_crosses_allocate_within_their_bounds() {
    // One ground atom whose names are interned already: what is left is
    // the atom's own term list.
    let atom = "e(s0n0, s0n1)";
    f(atom);
    let (_, spent) = counted(|| f(atom));
    guard("parse of one ground atom", spent, PARSE_ATOM);

    // The closure of `closure_write`: 100 chains of 30 edges.
    let facts: Vec<Formula> = (0..100).flat_map(chain).collect();
    let (theory, spent) = counted(|| Theory::new(facts).unwrap());
    assert_eq!(theory.len(), 3_000);
    guard(
        "Theory::new of the closure's 3 000 facts",
        spent,
        THEORY_NEW,
    );

    // Its build as the benchmark's set-up runs it: ten commits of 300
    // edges into a durable directory. The tenth is counted.
    let dir = std::env::temp_dir().join(format!("epilog-alloc-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rules = Theory::from_text(CLOSURE_RULES).unwrap();
    let mut db = DurableDb::create(&dir, rules, FsyncPolicy::Never).unwrap();
    for k in 0..10 {
        let edges: Vec<Formula> = (k * 10..(k + 1) * 10).flat_map(chain).collect();
        let ((), spent) = counted(|| {
            let txn = edges.into_iter().fold(db.transaction(), |t, e| t.assert(e));
            assert_eq!(txn.commit().unwrap().asserted, 300);
        });
        if k == 9 {
            guard("one 300-fact commit on the closure", spent, COMMIT_300);
        }
    }
    db.compact().unwrap();
    let model = db.db().prover().atom_model().unwrap().len();
    drop(db);
    let (recovered, spent) = counted(|| DurableDb::recover(&dir, FsyncPolicy::Never).unwrap());
    assert_eq!(recovered.0.prover().atom_model().unwrap().len(), model);
    guard(
        "DurableDb::recover of the compacted closure",
        spent,
        RECOVER,
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();

    // One hire on the registrar: 100 employees under both constraints.
    let mut src = String::from("forall x. emp(x) -> person(x)\n");
    for i in 0..100 {
        src.push_str(&format!("emp(e{i})\nss(e{i}, m{i})\n"));
    }
    let mut db = EpistemicDb::from_text(&src).unwrap();
    db.add_constraint(f("forall x. K emp(x) -> exists y. K ss(x, y)"))
        .unwrap();
    db.add_constraint(f("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z"))
        .unwrap();
    let hire = [f("ss(h, mh)"), f("emp(h)")];
    let (report, spent) = counted(|| {
        let [ss, emp] = hire;
        db.transaction().assert(ss).assert(emp).commit().unwrap()
    });
    assert_eq!(report.asserted, 2);
    guard("one registrar hire", spent, HIRE);
}

/// The counts this tree makes, in release and in debug builds (a debug
/// build's commit also checks that the cached program matches the
/// theory); a count may exceed its own by at most 2 %.
const fn counts(release: u64, debug: u64) -> u64 {
    let count = if cfg!(debug_assertions) {
        debug
    } else {
        release
    };
    count + count / 50
}

const PARSE_ATOM: u64 = counts(1, 1);
const THEORY_NEW: u64 = counts(3_002, 3_002);
const COMMIT_300: u64 = counts(1_642, 1_995);
const RECOVER: u64 = counts(11_654, 11_654);
const HIRE: u64 = counts(96, 136);
