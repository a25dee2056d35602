//! The oracle the served stack is judged by, shared by
//! `tests/chaos.rs` and `tests/serving.rs`: the sequential replay of
//! acknowledged operations in queue order. It keeps each state it reaches
//! by LSN, and answers a state from a database rebuilt from its sentences
//! and constraints alone, so nothing a live prover kept can leak in.

#![allow(dead_code)]

use epilog::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// The seeded generator every decision is drawn from.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005);
        self.0 = self.0.wrapping_add(1442695040888963407);
        self.0
    }

    /// A draw in `0..n` from the high bits (an LCG's low bits cycle).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 33) % n
    }
}

/// The number in the environment variable `name`, or `default`.
pub fn env(name: &str, default: u64) -> u64 {
    let set = std::env::var(name).ok().and_then(|v| v.parse().ok());
    set.unwrap_or(default)
}

pub const REGISTRAR: &str = "forall x. emp(x) -> person(x)";
/// Every employee has a number, and one at most.
pub const ICS: [&str; 2] = [
    "forall x. K emp(x) -> exists y. K ss(x, y)",
    "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
];
pub const PEOPLE: u64 = 4;
/// An employee with no number: refused once the first constraint is in.
pub const BAD: &str = "assert emp(Ghost)";

// A request is the lines a session sends for it, one per line of text.

/// A hire: an employee and the matching number.
pub fn hire(i: u64) -> String {
    format!("begin\nassert emp(E{i})\nassert ss(E{i}, N{i})\ncommit")
}

/// A fire: both retracted, and the renumbering too (a no-op when `Ei`
/// holds none of them); otherwise every person ends up renumbered and the
/// stream stops changing anything.
pub fn fire(i: u64) -> String {
    let j = (i + 1) % PEOPLE;
    format!("begin\nretract emp(E{i})\nretract ss(E{i}, N{i})\nretract ss(E{i}, N{j})\ncommit")
}

/// The registrar's mix: hire, fire, numberless hire, and a second number,
/// which the second constraint refuses iff `Ei` has one.
pub fn registrar(roll: u64) -> String {
    let i = (roll >> 8) % PEOPLE;
    match roll % 4 {
        0 => hire(i),
        1 => fire(i),
        2 => BAD.into(),
        _ => format!("assert ss(E{i}, N{})", (i + 1) % PEOPLE),
    }
}

/// Assert or retract one of four disjunctions (an assert of a held one,
/// or a retract of an absent one, changes nothing).
pub fn teach(roll: u64) -> String {
    let (k, verb) = ((roll >> 8) % 4, ["assert", "retract"][roll as usize % 2]);
    format!("{verb} Teach(H{k}, Q{k}) | Teach(G{k}, Q{k})")
}

/// The operations of a request's `assert` / `retract` lines.
pub fn ops(request: &str) -> Vec<TxOp> {
    request.lines().filter_map(op).collect()
}

/// The operation an `assert` / `retract` line asks for.
pub fn op(line: &str) -> Option<TxOp> {
    match line.split_once(' ')? {
        ("assert", w) => Some(TxOp::Assert(parse(w).unwrap())),
        ("retract", w) => Some(TxOp::Retract(parse(w).unwrap())),
        _ => None,
    }
}

/// A write, as the writer serves it.
#[derive(Clone, Debug)]
pub enum Write {
    Commit(Vec<TxOp>),
    Constraint(Formula),
    Flush,
    Heal,
}

/// A read line: `ask` of a sentence, or `demo` of an open query.
pub struct Read(bool, Formula);

pub fn reads(lines: &[&str]) -> Vec<Read> {
    let read = |(verb, q): (&str, &str)| Read(verb == "demo", parse(q).unwrap());
    lines
        .iter()
        .map(|line| read(line.split_once(' ').unwrap()))
        .collect()
}

/// What a database answers to each read, as the wire prints it around
/// the `@<lsn>`: the `ok …` head, then any `row` lines, sorted.
pub type Answers = Vec<(String, String)>;

pub fn answers(reads: &[Read], db: &EpistemicDb) -> Answers {
    let answer = |Read(demo, q): &Read| {
        if !demo {
            return (db.ask(q).to_string(), String::new());
        }
        let row = |ps: Vec<Param>| {
            ps.iter()
                .fold("\nrow".into(), |l: String, p| l + " " + &p.to_string())
        };
        let mut rows: Vec<String> = db.demo_all(q).unwrap().into_iter().map(row).collect();
        rows.sort();
        (format!("rows {}", rows.len()), rows.concat())
    };
    reads.iter().map(answer).collect()
}

/// A state: its sentences and its constraints, each sorted as text.
type State = (Vec<String>, Vec<String>);

fn state(db: &EpistemicDb) -> State {
    let sorted = |it: &mut dyn Iterator<Item = String>| {
        let mut v: Vec<String> = it.collect();
        v.sort();
        v
    };
    let theory = &mut db.theory().sentences().iter().map(|w| w.to_string());
    (
        sorted(theory),
        sorted(&mut db.constraints().map(|w| w.to_string())),
    )
}

/// The sequential replay of acknowledged operations.
#[derive(Clone)]
pub struct Oracle {
    db: EpistemicDb,
    /// LSN of the last logged operation: the state `db` holds.
    pub lsn: u64,
    states: HashMap<u64, Rc<State>>,
    reads: Rc<Vec<Read>>,
    /// Each state's answers; shared by the clones of one oracle.
    answered: Rc<RefCell<HashMap<Rc<State>, Answers>>>,
}

impl Oracle {
    /// The oracle of a database created on `base`, asking `reads`.
    pub fn new(base: &str, reads: &[&str]) -> Oracle {
        let db = EpistemicDb::from_text(base).unwrap();
        let states = HashMap::from([(0, Rc::new(state(&db)))]);
        let (reads, answered) = (Rc::new(self::reads(reads)), Rc::default());
        Oracle {
            db,
            lsn: 0,
            states,
            reads,
            answered,
        }
    }

    /// The state the acknowledged operations reached.
    pub fn db(&self) -> &EpistemicDb {
        &self.db
    }

    /// Replay `write` if the database accepts it, and return the line the
    /// wire answers it with: `Ok` for an acknowledgment, `Err` for a
    /// refusal or a panic (`err internal error: …`), which change nothing.
    pub fn apply(&mut self, write: &Write) -> Result<String, String> {
        let mut next = self.db.clone();
        let done = catch_unwind(AssertUnwindSafe(|| match write {
            Write::Commit(ops) => {
                let mut txn = next.transaction();
                for op in ops.iter().cloned() {
                    txn = match op {
                        TxOp::Assert(w) => txn.assert(w),
                        TxOp::Retract(w) => txn.retract(w),
                    };
                }
                txn.commit().map(|r| (r.asserted, r.retracted))
            }
            // A constraint already registered is logged as nothing.
            Write::Constraint(ic) => next
                .add_constraint(ic.clone())
                .map(|new| (usize::from(new), 0)),
            Write::Flush | Write::Heal => unreachable!("not replayed"),
        }));
        let (a, r) = match done {
            Ok(Ok(changed)) => changed,
            Ok(Err(e)) => return Err(format!("err rejected: {e} @{}", self.lsn)),
            Err(panic) => return Err(format!("err {}", ServeError::from_panic(panic))),
        };
        if a + r > 0 {
            self.lsn += 1;
            self.states.insert(self.lsn, Rc::new(state(&next)));
        }
        self.db = next;
        Ok(match write {
            Write::Commit(_) => format!("ok committed @{} +{a} -{r}", self.lsn),
            _ => format!("ok constraint @{}", self.lsn),
        })
    }

    fn state(&self, lsn: u64, ctx: &str) -> &Rc<State> {
        let state = self.states.get(&lsn);
        state.unwrap_or_else(|| panic!("{ctx}: LSN {lsn} is no acknowledged state"))
    }

    /// The answers of the state at `lsn`, from a database rebuilt from its
    /// sentences and constraints.
    pub fn expected(&self, lsn: u64) -> Answers {
        let state = self.state(lsn, "expected");
        let rebuilt = || {
            let parsed = |ws: &[String]| ws.iter().map(|w| parse(w).unwrap()).collect::<Vec<_>>();
            let mut fresh = EpistemicDb::new(Theory::new(parsed(&state.0)).unwrap());
            for ic in parsed(&state.1) {
                fresh.add_constraint(ic).unwrap();
            }
            answers(&self.reads, &fresh)
        };
        let mut answered = self.answered.borrow_mut();
        answered
            .entry(Rc::clone(state))
            .or_insert_with(rebuilt)
            .clone()
    }

    /// The wire reply of read `i` at `lsn`.
    pub fn read(&self, i: usize, lsn: u64) -> String {
        let (head, rows) = &self.expected(lsn)[i];
        format!("ok {head} @{lsn}{rows}")
    }

    /// `db`, published or recovered at `lsn`, is the acknowledged state
    /// there: its sentences and constraints, and with `with_answers` its
    /// answers too.
    pub fn check(&self, db: &EpistemicDb, lsn: u64, with_answers: bool, ctx: &str) {
        let (theory, ics) = state(db);
        let want = self.state(lsn, ctx);
        assert_eq!(theory, want.0, "{ctx}: theory at LSN {lsn} diverged");
        assert_eq!(ics, want.1, "{ctx}: constraints at LSN {lsn} diverged");
        if with_answers {
            let got = answers(&self.reads, db);
            assert_eq!(
                got,
                self.expected(lsn),
                "{ctx}: answers at LSN {lsn} diverged"
            );
        }
    }
}
