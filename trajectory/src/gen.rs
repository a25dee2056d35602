//! Workloads: the base population each database directory is built
//! from, and one infinite seeded op stream per connection.
//!
//! The generators are the benchmark's own (nothing is imported from
//! `epilog_bench::workloads`), so a later change to that file cannot
//! move these numbers. Every op carries the reply the generator expects:
//! connections write in disjoint key ranges (`h<conn>_<k>` and friends)
//! and read only the static base population, so no oracle is needed.
//! Writes come in grow/shrink pairs that return the state to the base,
//! which keeps a time-bound run stationary.

/// Employees in the registrar workloads (300 model tuples).
pub const EMPLOYEES: u64 = 100;
/// Disjoint chains in `closure_write`.
pub const CHAINS: u64 = 100;
/// Edges per chain (31 nodes `x0..x30`).
pub const CHAIN_EDGES: u64 = 30;
/// Chains reserved per connection for bridge writes; the rest are read.
pub const BRIDGE_CHAINS_PER_CONN: u64 = 20;
/// Ground `Teach` facts in `teach_mixed`.
pub const TEACHERS: u64 = 100;
/// Base disjunctions in `teach_mixed`.
pub const DISJUNCTIONS: u64 = 10;
/// Generator threads = connections. `nproc` is 2 on the reference host.
pub const CONNECTIONS: usize = 2;

/// SplitMix64: small, seedable, and owned here so the op streams do not
/// change when the repository's `rand` shim does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Where an op stream draws its next op kind from: the fifty even
/// percent points `0, 2, .. 98`, reshuffled each time they run out. Every
/// fifty ops therefore hold each kind in exactly its stated share, so two
/// seeds differ in order and keys but not in how many hires a window got —
/// an independent draw per op made `ops_per_s` swing 7 % between seeds.
#[derive(Default)]
struct Deck(Vec<u64>);

impl Deck {
    fn draw(&mut self, rng: &mut Rng) -> u64 {
        if self.0.is_empty() {
            self.0 = (0..50).map(|i| 2 * i).collect();
            for i in (1..self.0.len()).rev() {
                self.0.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.0.pop().expect("just refilled")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    RegistrarRead,
    RegistrarMixed,
    ClosureWrite,
    TeachMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RegistrarRead,
        Workload::RegistrarMixed,
        Workload::ClosureWrite,
        Workload::TeachMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegistrarRead => "registrar_read",
            Workload::RegistrarMixed => "registrar_mixed",
            Workload::ClosureWrite => "closure_write",
            Workload::TeachMixed => "teach_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the same line `BENCHMARK.json` carries).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RegistrarRead => {
                "read-only registrar: memo stays warm, writer idle, so server + syntax + core read path is all that runs"
            }
            Workload::RegistrarMixed => {
                "reads beside hire/fire/rejected commits: constraint routing dominates, each commit empties the memo, one writer"
            }
            Workload::ClosureWrite => {
                "80% writes on a 49.5k-tuple transitive closure, no constraints: datalog fixpoints, DRed and O(|db|) clones"
            }
            Workload::TeachMixed => {
                "non-definite Teach world: grounding + CDCL carry every cold read; datalog and constraints are idle"
            }
        }
    }

    /// The workload's most frequent read kind — the one `read_p50_ms`
    /// reports (kinds are never pooled into one median).
    pub fn primary_read(self) -> Kind {
        match self {
            Workload::ClosureWrite => Kind::Demo,
            _ => Kind::AskGround,
        }
    }

    /// The stated mix: each op kind's share of a connection's ops. The
    /// streams below deal exactly this, and `ops_per_s` weights the
    /// per-kind latencies by it.
    pub fn mix(self) -> &'static [(Kind, f64)] {
        match self {
            Workload::RegistrarRead => &[
                (Kind::AskGround, 0.60),
                (Kind::AskQuant, 0.20),
                (Kind::Demo, 0.10),
                (Kind::AskAbsent, 0.10),
            ],
            // 78 % reads split as above, 20 % hire/fire, 2 % rejects.
            Workload::RegistrarMixed => &[
                (Kind::AskGround, 0.468),
                (Kind::AskQuant, 0.156),
                (Kind::Demo, 0.078),
                (Kind::AskAbsent, 0.078),
                (Kind::Grow, 0.10),
                (Kind::Shrink, 0.10),
                (Kind::Reject, 0.02),
            ],
            Workload::ClosureWrite => &[
                (Kind::Demo, 0.20),
                (Kind::Grow, 0.20),
                (Kind::Shrink, 0.20),
                (Kind::PointGrow, 0.20),
                (Kind::PointShrink, 0.20),
            ],
            // 90 % reads cycling six shapes, three of them `AskOther`.
            Workload::TeachMixed => &[
                (Kind::AskGround, 0.15),
                (Kind::AskQuant, 0.15),
                (Kind::Demo, 0.15),
                (Kind::AskOther, 0.45),
                (Kind::Grow, 0.05),
                (Kind::Shrink, 0.05),
            ],
        }
    }

    pub fn base(self) -> Base {
        match self {
            Workload::RegistrarRead | Workload::RegistrarMixed => Base {
                rules: "forall x. emp(x) -> person(x)",
                // Constraints go in before the facts: registering the ss
                // functional dependency on a populated registrar is
                // ~O(n^3) (README, floor 2).
                constraints: &[
                    "forall x. K emp(x) -> exists y. K ss(x, y)",
                    "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
                ],
                commits: (0..EMPLOYEES)
                    .map(|i| vec![format!("ss(e{i}, n{i})"), format!("emp(e{i})")])
                    .collect(),
            },
            Workload::ClosureWrite => Base {
                rules: "forall x, y. e(x, y) -> t(x, y)\n\
                        forall x, y, z. e(x, y) & t(y, z) -> t(x, z)",
                constraints: &[],
                commits: (0..CHAINS)
                    .step_by(10)
                    .map(|c0| {
                        (c0..c0 + 10)
                            .flat_map(|c| {
                                (0..CHAIN_EDGES)
                                    .map(move |k| format!("e(c{c}x{k}, c{c}x{})", k + 1))
                            })
                            .collect()
                    })
                    .collect(),
            },
            Workload::TeachMixed => Base {
                rules: "",
                constraints: &[],
                commits: vec![
                    (0..TEACHERS)
                        .map(|i| format!("Teach(t{i}, c{i})"))
                        .collect(),
                    (0..DISJUNCTIONS)
                        .map(|j| format!("Teach(a{j}, P{j}) | Teach(b{j}, P{j})"))
                        .chain(std::iter::once("exists x. Teach(x, CS)".to_string()))
                        .collect(),
                ],
            },
        }
    }

    /// A base read with a known answer: the first request a fresh server
    /// is sent, which ends the set-up clock.
    pub fn probe(self) -> Op {
        OpStream::new(self, 0, 0).read(self.primary_read(), 0)
    }
}

/// What a database directory is built from, in build order: rules, then
/// constraints, then facts by commits.
pub struct Base {
    pub rules: &'static str,
    pub constraints: &'static [&'static str],
    pub commits: Vec<Vec<String>>,
}

/// Op kinds. Latencies are reported per kind, never pooled: a hire at
/// 250 ms and a fire at 50 ms would make a bimodal median.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// `ask K p(a)` on a base key.
    AskGround,
    /// `ask exists y. K p(a, y)` — quantifying into `K`.
    AskQuant,
    /// `demo K p(a, x)`.
    Demo,
    /// `ask K emp(<absent>)`.
    AskAbsent,
    /// The other §1 shapes of `teach_mixed`; counted in `ops_per_s` only.
    AskOther,
    /// Hire / bridge insert / disjunction assert.
    Grow,
    /// Fire / bridge retract / disjunction retract.
    Shrink,
    /// `closure_write` leaf insert (ROADMAP item 2's acceptance row).
    PointGrow,
    /// `closure_write` leaf retract.
    PointShrink,
    /// A commit the constraints must refuse.
    Reject,
}

impl Kind {
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::AskGround | Kind::AskQuant | Kind::Demo | Kind::AskAbsent | Kind::AskOther
        )
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    Committed { added: usize, removed: usize },
    Rejected,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Body {
    /// `ask <q>` answering `verdict` (`yes` / `no` / `unknown`).
    Ask { q: String, verdict: &'static str },
    /// `demo <q>` answering exactly `rows` (one space-joined tuple each).
    Demo { q: String, rows: Vec<String> },
    /// `begin`, one line per `(is_assert, sentence)`, `commit`.
    Txn {
        ops: Vec<(bool, String)>,
        outcome: Outcome,
    },
}

/// One op: one read request, or one whole transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Op {
    pub kind: Kind,
    pub body: Body,
}

/// One connection's infinite op stream.
pub struct OpStream {
    workload: Workload,
    conn: u64,
    rng: Rng,
    /// Which op comes next, and which read kind a registrar read is.
    mix: Deck,
    read_mix: Deck,
    /// Next fresh write key `k` of `h<conn>_<k>`.
    fresh: u64,
    /// The grow op awaiting its shrink, per write family.
    pending: [Option<Vec<(bool, String)>>; 2],
    /// Round-robin position over the `teach_mixed` read shapes.
    shape: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, conn: usize) -> OpStream {
        assert!(
            conn < CONNECTIONS,
            "key ranges are laid out for {CONNECTIONS} connections"
        );
        // Distinct streams per (seed, workload, connection); the odd
        // multipliers keep nearby seeds from sharing a prefix.
        let mix = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((workload as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))
            .wrapping_add((conn as u64 + 1).wrapping_mul(0x8cb9_2ba7_2f3d_8dd7));
        let mut rng = Rng::new(mix);
        rng.next_u64();
        OpStream {
            workload,
            conn: conn as u64,
            rng,
            fresh: 0,
            mix: Deck::default(),
            read_mix: Deck::default(),
            pending: [None, None],
            shape: 0,
        }
    }

    fn ask(kind: Kind, q: String, verdict: &'static str) -> Op {
        Op {
            kind,
            body: Body::Ask { q, verdict },
        }
    }

    /// A read of `kind` on base key `i`.
    fn read(&self, kind: Kind, i: u64) -> Op {
        match (self.workload, kind) {
            (Workload::RegistrarRead | Workload::RegistrarMixed, Kind::AskGround) => {
                Self::ask(kind, format!("K person(e{i})"), "yes")
            }
            (Workload::RegistrarRead | Workload::RegistrarMixed, Kind::AskQuant) => {
                Self::ask(kind, format!("exists y. K ss(e{i}, y)"), "yes")
            }
            (Workload::RegistrarRead | Workload::RegistrarMixed, Kind::Demo) => Op {
                kind,
                body: Body::Demo {
                    q: format!("K ss(e{i}, x)"),
                    rows: vec![format!("n{i}")],
                },
            },
            (Workload::RegistrarRead | Workload::RegistrarMixed, Kind::AskAbsent) => {
                Self::ask(kind, format!("K emp(q{i})"), "no")
            }
            (Workload::ClosureWrite, Kind::Demo) => Op {
                kind,
                body: Body::Demo {
                    q: format!("K t(c{i}x0, y)"),
                    rows: (1..=CHAIN_EDGES).map(|k| format!("c{i}x{k}")).collect(),
                },
            },
            (Workload::TeachMixed, Kind::AskGround) => {
                Self::ask(kind, format!("K Teach(t{i}, c{i})"), "yes")
            }
            // No individual is known to teach P_j — only the disjunction
            // is — so quantifying into K answers no (the paper's §1).
            (Workload::TeachMixed, Kind::AskQuant) => Self::ask(
                kind,
                format!("exists x. K Teach(x, P{})", i % DISJUNCTIONS),
                "no",
            ),
            (Workload::TeachMixed, Kind::Demo) => Op {
                kind,
                body: Body::Demo {
                    q: format!("K Teach(x, c{i})"),
                    rows: vec![format!("t{i}")],
                },
            },
            (w, k) => unreachable!("{w:?} has no {k:?} read"),
        }
    }

    /// The next op of a write family: the pending grow's shrink, or a
    /// fresh grow. Hires and fires therefore alternate per connection.
    fn write_pair(
        &mut self,
        family: usize,
        grow: Kind,
        shrink: Kind,
        fresh: impl FnOnce(&mut OpStream) -> Vec<String>,
    ) -> Op {
        if let Some(ops) = self.pending[family].take() {
            let removed = ops.len();
            return Op {
                kind: shrink,
                body: Body::Txn {
                    ops: ops.into_iter().map(|(_, s)| (false, s)).collect(),
                    outcome: Outcome::Committed { added: 0, removed },
                },
            };
        }
        let ops: Vec<(bool, String)> = fresh(self).into_iter().map(|s| (true, s)).collect();
        self.pending[family] = Some(ops.clone());
        let added = ops.len();
        Op {
            kind: grow,
            body: Body::Txn {
                ops,
                outcome: Outcome::Committed { added, removed: 0 },
            },
        }
    }

    fn fresh_key(&mut self) -> (u64, u64) {
        let k = self.fresh;
        self.fresh += 1;
        (self.conn, k)
    }

    fn registrar_read(&mut self) -> Op {
        let kind = match self.read_mix.draw(&mut self.rng) {
            0..=59 => Kind::AskGround,
            60..=79 => Kind::AskQuant,
            80..=89 => Kind::Demo,
            _ => Kind::AskAbsent,
        };
        let i = self.rng.below(EMPLOYEES);
        self.read(kind, i)
    }

    fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::RegistrarRead => self.registrar_read(),
            Workload::RegistrarMixed => match self.mix.draw(&mut self.rng) {
                0..=77 => self.registrar_read(),
                78..=97 => self.write_pair(0, Kind::Grow, Kind::Shrink, |s| {
                    let (c, k) = s.fresh_key();
                    vec![format!("ss(h{c}_{k}, m{c}_{k})"), format!("emp(h{c}_{k})")]
                }),
                _ => {
                    // An employee without an ss number: the first
                    // constraint must refuse the commit.
                    let (c, k) = self.fresh_key();
                    Op {
                        kind: Kind::Reject,
                        body: Body::Txn {
                            ops: vec![(true, format!("emp(h{c}_{k})"))],
                            outcome: Outcome::Rejected,
                        },
                    }
                }
            },
            Workload::ClosureWrite => match self.mix.draw(&mut self.rng) {
                0..=19 => {
                    let read_chains = CHAINS - CONNECTIONS as u64 * BRIDGE_CHAINS_PER_CONN;
                    let j =
                        CONNECTIONS as u64 * BRIDGE_CHAINS_PER_CONN + self.rng.below(read_chains);
                    self.read(Kind::Demo, j)
                }
                // Joining chain a's tail to chain a+1's head adds 31 x 31
                // `t` tuples over 32 rounds; the retract runs DRed over
                // the same 962.
                20..=59 => self.write_pair(0, Kind::Grow, Kind::Shrink, |s| {
                    let a = s.conn * BRIDGE_CHAINS_PER_CONN
                        + 2 * s.rng.below(BRIDGE_CHAINS_PER_CONN / 2);
                    vec![format!("e(c{a}x{CHAIN_EDGES}, c{}x0)", a + 1)]
                }),
                // A fresh isolated edge: +-2 tuples, so what the commit
                // costs is what it copies.
                _ => self.write_pair(1, Kind::PointGrow, Kind::PointShrink, |s| {
                    let (c, k) = s.fresh_key();
                    vec![format!("e(h{c}_{k}, g{c}_{k})")]
                }),
            },
            Workload::TeachMixed => match self.mix.draw(&mut self.rng) {
                0..=89 => {
                    let shape = self.shape;
                    self.shape += 1;
                    let i = self.rng.below(TEACHERS);
                    let j = i % DISJUNCTIONS;
                    match shape % 6 {
                        0 => self.read(Kind::AskGround, i),
                        1 => self.read(Kind::AskQuant, i),
                        2 => self.read(Kind::Demo, i),
                        3 => Self::ask(
                            Kind::AskOther,
                            format!("K (Teach(a{j}, P{j}) | Teach(b{j}, P{j}))"),
                            "yes",
                        ),
                        4 => Self::ask(Kind::AskOther, "K (exists x. Teach(x, CS))".into(), "yes"),
                        _ => Self::ask(Kind::AskOther, format!("Teach(a{j}, P{j})"), "unknown"),
                    }
                }
                _ => self.write_pair(0, Kind::Grow, Kind::Shrink, |s| {
                    let (c, k) = s.fresh_key();
                    vec![format!(
                        "Teach(h{c}_{k}, Q{c}_{k}) | Teach(g{c}_{k}, Q{c}_{k})"
                    )]
                }),
            },
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(w: Workload, seed: u64, conn: usize, n: usize) -> Vec<Op> {
        OpStream::new(w, seed, conn).take(n).collect()
    }

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for w in Workload::ALL {
            assert_eq!(take(w, 7, 0, 500), take(w, 7, 0, 500), "{w:?}");
            assert_ne!(take(w, 7, 0, 500), take(w, 8, 0, 500), "{w:?}");
            assert_ne!(take(w, 7, 0, 500), take(w, 7, 1, 500), "{w:?}");
        }
    }

    fn write_sentences(ops: &[Op]) -> HashSet<String> {
        ops.iter()
            .filter_map(|op| match &op.body {
                Body::Txn { ops, .. } => Some(ops.iter().map(|(_, s)| s.clone())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn write_keys_are_disjoint_across_connections_and_never_variables() {
        for w in Workload::ALL {
            let a = write_sentences(&take(w, 3, 0, 2000));
            let b = write_sentences(&take(w, 3, 1, 2000));
            if w != Workload::RegistrarRead {
                assert!(!a.is_empty() && !b.is_empty(), "{w:?} writes");
            }
            assert!(a.is_disjoint(&b), "{w:?}: connections share a write key");
            for s in a.iter().chain(&b) {
                for name in s.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                    // The parser reads u..z-initial names as variables.
                    assert!(
                        !matches!(name.chars().next(), Some('u'..='z')),
                        "{w:?}: {name:?} in {s:?} would parse as a variable"
                    );
                }
            }
        }
    }

    #[test]
    fn writes_pair_up_and_return_to_the_base() {
        for w in [
            Workload::RegistrarMixed,
            Workload::ClosureWrite,
            Workload::TeachMixed,
        ] {
            let mut live: HashSet<String> = HashSet::new();
            for op in take(w, 11, 0, 3000) {
                let Body::Txn { ops, outcome } = op.body else {
                    continue;
                };
                if outcome == Outcome::Rejected {
                    continue;
                }
                for (assert, s) in ops {
                    if assert {
                        assert!(live.insert(s), "{w:?}: double assert");
                    } else {
                        assert!(live.remove(&s), "{w:?}: retract of an absent sentence");
                    }
                }
                assert!(
                    live.len() <= 3,
                    "{w:?}: at most one pending pair per family"
                );
            }
        }
    }

    #[test]
    fn streams_deal_their_stated_mix() {
        for w in Workload::ALL {
            assert!((w.mix().iter().map(|(_, share)| share).sum::<f64>() - 1.0).abs() < 1e-12);
            let ops = take(w, 5, 0, 30_000);
            for &(kind, share) in w.mix() {
                let dealt = ops.iter().filter(|o| o.kind == kind).count() as f64 / ops.len() as f64;
                assert!(
                    (dealt - share).abs() < 0.005,
                    "{w:?} {kind:?}: dealt {dealt}, stated {share}"
                );
            }
        }
        // Reads against writes are exact per fifty ops, not approximate:
        // kinds are dealt from a deck.
        let reads = |w: Workload| {
            take(w, 9, 1, 50)
                .iter()
                .filter(|o| o.kind.is_read())
                .count()
        };
        assert_eq!(reads(Workload::RegistrarMixed), 39);
        assert_eq!(reads(Workload::ClosureWrite), 10);
        assert_eq!(reads(Workload::TeachMixed), 45);
    }

    #[test]
    fn closure_reads_stay_off_the_bridged_chains() {
        for op in take(Workload::ClosureWrite, 2, 1, 5000) {
            if let Body::Demo { q, rows } = op.body {
                let chain: u64 = q["K t(c".len()..q.find('x').unwrap()].parse().unwrap();
                assert!(chain >= CONNECTIONS as u64 * BRIDGE_CHAINS_PER_CONN && chain < CHAINS);
                assert_eq!(rows.len() as u64, CHAIN_EDGES);
            }
        }
    }
}
