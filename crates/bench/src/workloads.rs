//! Workload generators for the report binary.
//!
//! Each generator is deterministic given its arguments, so every row of
//! `crates/bench/report.sample.txt` is exactly reproducible.

use epilog_syntax::Theory;

/// The Section 1 Teach database.
pub fn teach_db() -> Theory {
    Theory::from_text(
        "Teach(John, Math)
         exists x. Teach(x, CS)
         Teach(Mary, Psych) | Teach(Sue, Psych)",
    )
    .expect("static text parses")
}

/// The Section 1 query table (query text, paper's answer).
pub fn section1_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("Teach(Mary, CS)", "unknown"),
        ("K Teach(Mary, CS)", "no"),
        ("K ~Teach(Mary, CS)", "no"),
        ("exists x. K Teach(John, x)", "yes"),
        ("exists x. K Teach(x, CS)", "no"),
        ("K (exists x. Teach(x, CS))", "yes"),
        ("exists x. Teach(x, Psych)", "yes"),
        ("exists x. K Teach(x, Psych)", "no"),
        ("exists x. Teach(x, Psych) & ~Teach(x, CS)", "unknown"),
        ("exists x. Teach(x, Psych) & ~K Teach(x, CS)", "yes"),
    ]
}

/// The F7 workload: a registrar of `n` employees — `emp` +
/// `ss` facts and the `emp ⊃ person` rule (so the theory is definite and
/// commits have derived consequences) — under the §3 epistemic
/// constraints (known number per employee, unique numbers).
pub fn registrar_db(n: usize) -> epilog_core::EpistemicDb {
    let mut src = String::from("forall x. emp(x) -> person(x)\n");
    for i in 0..n {
        src.push_str(&format!("emp(e{i})\nss(e{i}, n{i})\n"));
    }
    let mut db = epilog_core::EpistemicDb::from_text(&src).expect("generated text parses");
    db.add_constraint(epilog_syntax::parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
        .expect("registrar satisfies the emp constraint");
    db.add_constraint(
        epilog_syntax::parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
    )
    .expect("registrar satisfies the FD constraint");
    db
}

/// The sentences enrolling employees `start .. start + k` into a
/// registrar: one `emp` and one `ss` fact each.
pub fn enrollment_batch(start: usize, k: usize) -> Vec<epilog_syntax::Formula> {
    let mut out = Vec::with_capacity(2 * k);
    for i in start..start + k {
        out.push(epilog_syntax::parse(&format!("ss(e{i}, n{i})")).unwrap());
        out.push(epilog_syntax::parse(&format!("emp(e{i})")).unwrap());
    }
    out
}

/// The sentences withdrawing employees `start .. start + k` from a
/// registrar: exactly the facts [`enrollment_batch`] enrolls, to be
/// *retracted*. Each withdrawn employee takes 3 model tuples with them
/// (`emp`, `ss`, and the derived `person`), exercising the
/// over-delete/re-derive path.
pub fn withdrawal_batch(start: usize, k: usize) -> Vec<epilog_syntax::Formula> {
    let mut out = Vec::with_capacity(2 * k);
    for i in start..start + k {
        out.push(epilog_syntax::parse(&format!("emp(e{i})")).unwrap());
        out.push(epilog_syntax::parse(&format!("ss(e{i}, n{i})")).unwrap());
    }
    out
}

/// The F8 workload: the registrar built *durably* at `dir` —
/// `DurableDb::create` with the `emp ⊃ person` rule, the two §3
/// constraints (2 log records), then `n` single-employee enrollment
/// commits (`n` log records of 2 sentences each). Deterministic: the log
/// always holds `n + 2` records and the state equals `registrar_db(n)`.
pub fn durable_registrar(
    dir: &std::path::Path,
    n: usize,
    policy: epilog_persist::FsyncPolicy,
) -> epilog_persist::DurableDb {
    let theory =
        epilog_syntax::Theory::from_text("forall x. emp(x) -> person(x)").expect("static text");
    let mut db = epilog_persist::DurableDb::create(dir, theory, policy)
        .expect("fresh directory initializes");
    db.add_constraint(epilog_syntax::parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
        .expect("fact-free registrar satisfies the emp constraint");
    db.add_constraint(
        epilog_syntax::parse("forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z").unwrap(),
    )
    .expect("fact-free registrar satisfies the FD constraint");
    for i in 0..n {
        let mut txn = db.transaction();
        for w in enrollment_batch(i, 1) {
            txn = txn.assert(w);
        }
        let _ = txn.commit().expect("enrollment satisfies the constraints");
    }
    db
}

/// The F11 workload: the registrar *served* from `dir` — an
/// [`epilog_persist::Writer`] with the `emp ⊃ person` rule, the two §3
/// constraints, then `n` single-employee enrollments, each stepped as a
/// batch of its own; returned with its endpoint. Deterministic: the final
/// state equals [`registrar_db`]`(n)` and the head LSN is `n + 2`.
pub fn serving_registrar(
    dir: &std::path::Path,
    n: usize,
) -> (epilog_persist::Writer, epilog_persist::Endpoint) {
    use epilog_persist::{DurableDb, FsyncPolicy, Request, TxOp, Writer};
    let theory =
        epilog_syntax::Theory::from_text("forall x. emp(x) -> person(x)").expect("static text");
    let durable =
        DurableDb::create(dir, theory, FsyncPolicy::Never).expect("fresh directory initializes");
    let (mut writer, endpoint) = Writer::new(durable);
    for ic in [
        "forall x. K emp(x) -> exists y. K ss(x, y)",
        "forall x, y, z. K ss(x, y) & K ss(x, z) -> K y = z",
    ] {
        let (req, h) = Request::constraint(epilog_syntax::parse(ic).unwrap());
        writer.step(vec![req]);
        h.wait()
            .expect("the fact-free registrar satisfies both constraints");
    }
    for i in 0..n {
        let ops = enrollment_batch(i, 1)
            .into_iter()
            .map(TxOp::Assert)
            .collect();
        let (req, h) = Request::commit(ops);
        writer.step(vec![req]);
        h.wait().expect("enrollment satisfies the constraints");
    }
    (writer, endpoint)
}

/// The evaluation-pipeline scaling workload: a `k`-way chain join plus
/// transitive closure over an `n`-edge chain, in one program.
///
/// EDB: relations `r0 … r{k-1}`, each holding the same `n`-edge chain
/// `ri(n_j, n_{j+1})`. Rules:
///
/// * `join(x0, xk) ← r0(x0,x1) ∧ r1(x1,x2) ∧ … ∧ r{k-1}(x{k-1},xk)` —
///   the chain join, deriving the `n − k + 1` length-`k` paths;
/// * `t(x, y) ← r0(x, y)` and `t(x, z) ← r0(x, y) ∧ t(y, z)` — the
///   transitive closure, deriving `n(n+1)/2` pairs.
///
/// Expected sizes (asserted by the report's F6 rows):
/// `|join| = n − k + 1` (for `n ≥ k ≥ 1`), `|t| = n(n+1)/2`.
pub fn scaling_program(n: usize, k: usize) -> epilog_datalog::Program {
    assert!(k >= 1 && n >= k, "need n >= k >= 1");
    let mut src = String::new();
    for r in 0..k {
        for j in 0..n {
            src.push_str(&format!("r{r}(n{j}, n{})\n", j + 1));
        }
    }
    let vars: Vec<String> = (0..=k).map(|i| format!("x{i}")).collect();
    let body: Vec<String> = (0..k)
        .map(|r| format!("r{r}({}, {})", vars[r], vars[r + 1]))
        .collect();
    src.push_str(&format!(
        "forall {}. {} -> join(x0, x{k})\n",
        vars.join(", "),
        body.join(" & "),
    ));
    src.push_str("forall x, y. r0(x, y) -> t(x, y)\n");
    src.push_str("forall x, y, z. r0(x, y) & t(y, z) -> t(x, z)\n");
    epilog_datalog::Program::from_text(&src).expect("generated text parses")
}

/// Transitive closure over a dense digraph, as theory text: `e(i, j)`
/// for every ordered pair of `m` distinct nodes (minus `without`). Every
/// `t(x, y)` has many derivations, so after one edge is retracted each
/// over-deleted tuple survives through an *alternative* one — what the
/// F12 report row asks `why` to find.
pub fn dense_closure_text(m: usize, without: Option<(usize, usize)>) -> String {
    assert!(m >= 3, "need a graph dense enough for alternative paths");
    let mut src = String::new();
    for i in 0..m {
        for j in 0..m {
            if i != j && without != Some((i, j)) {
                src.push_str(&format!("e(n{i}, n{j})\n"));
            }
        }
    }
    src.push_str("forall x, y. e(x, y) -> t(x, y)\n");
    src.push_str("forall x, y, z. e(x, y) & t(y, z) -> t(x, z)\n");
    src
}

/// The F9 equi-join workload: a join on **both** columns of a skewed
/// relation.
///
/// EDB: `q` and `big` each hold the `n` tuples `(k_{i mod d}, val_i)` —
/// column 0 takes only `d` distinct values, column 1 is unique. Rule:
/// `hit(x, y) ← q(x, y) ∧ big(x, y)`, so `|hit| = n`.
///
/// Scanning `q` and, per outer row, probing `big`'s single-column index
/// on the skewed column 0 would pull a bucket of `n/d` tuples residually
/// filtered on column 1 — `Θ(n²/d)` rows examined. With both columns
/// bound the `big` step is a lookup instead: `2n` rows (the scan, then
/// one tuple found per row).
pub fn join_heavy_program(n: usize, d: usize) -> epilog_datalog::Program {
    assert!(d >= 1 && n >= d, "need n >= d >= 1");
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("q(k{}, val{i})\nbig(k{}, val{i})\n", i % d, i % d));
    }
    src.push_str("forall x, y. q(x, y) & big(x, y) -> hit(x, y)\n");
    epilog_datalog::Program::from_text(&src).expect("generated text parses")
}

/// The F9 ordering workload: a two-literal body written big
/// relation first.
///
/// EDB: `big` holds `n` tuples `(b_i, c_i)` (both columns unique),
/// `small` holds the `m ≤ n` tuples `b_0 … b_{m-1}`. Rule:
/// `out(x, y) ← big(x, y) ∧ small(x)`, so `|out| = m`.
///
/// Bound-column counts tie at zero, so the written order would scan all
/// of `big`; the planner reads the cardinalities, flips to `small` first
/// (`m` rows) and probes `big`'s unique column — `2m` rows examined
/// whatever `n` is.
pub fn order_sensitive_program(n: usize, m: usize) -> epilog_datalog::Program {
    assert!(m >= 1 && n >= m, "need n >= m >= 1");
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("big(b{i}, c{i})\n"));
    }
    for j in 0..m {
        src.push_str(&format!("small(b{j})\n"));
    }
    src.push_str("forall x, y. big(x, y) & small(x) -> out(x, y)\n");
    epilog_datalog::Program::from_text(&src).expect("generated text parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use epilog_syntax::Pred;

    #[test]
    fn registrar_commits_incrementally() {
        use epilog_core::ModelUpdate;
        let mut db = registrar_db(4);
        let mut txn = db.transaction();
        for w in enrollment_batch(4, 2) {
            txn = txn.assert(w);
        }
        let report = txn.commit().unwrap();
        assert_eq!(report.asserted, 4);
        assert!(matches!(report.model, ModelUpdate::Incremental { .. }));
        assert!(db.satisfies_constraints());
    }

    #[test]
    fn registrar_withdrawals_take_the_decremental_path() {
        use epilog_core::ModelUpdate;
        let mut db = registrar_db(4);
        let mut txn = db.transaction();
        for w in withdrawal_batch(2, 2) {
            txn = txn.retract(w);
        }
        let report = txn.commit().unwrap();
        assert_eq!(report.retracted, 4);
        let ModelUpdate::Incremental {
            tuples_removed,
            stats,
            ..
        } = report.model
        else {
            panic!("expected the decremental path, got {:?}", report.model);
        };
        // Each employee takes emp, ss, and the derived person fact.
        assert_eq!(tuples_removed, 6);
        assert_eq!(stats.full_firings, 0);
        assert_eq!(stats.plans_compiled, 0);
        assert!(db.satisfies_constraints());
    }

    #[test]
    fn join_workload_shapes_and_planner_agreement() {
        let prog = join_heavy_program(32, 4);
        let (a, stats) = prog.fixpoint(true);
        let (b, _) = prog.fixpoint(false);
        assert_eq!(a, b);
        assert_eq!(a.relation(Pred::new("hit", 2)).unwrap().len(), 32);
        assert_eq!(stats.rows_examined, 2 * 32);

        let prog = order_sensitive_program(32, 4);
        let (a, stats) = prog.fixpoint(true);
        let (b, _) = prog.fixpoint(false);
        assert_eq!(a, b);
        assert_eq!(a.relation(Pred::new("out", 2)).unwrap().len(), 4);
        assert_eq!(stats.rows_examined, 2 * 4);
    }

    #[test]
    fn scaling_program_sizes() {
        for (n, k) in [(4, 2), (8, 3), (6, 1), (16, 3)] {
            let p = scaling_program(n, k);
            let (db, fast) = p.eval();
            assert_eq!(
                db.relation(Pred::new("join", 2)).unwrap().len(),
                n - k + 1,
                "join size for n={n} k={k}"
            );
            assert_eq!(
                db.relation(Pred::new("t", 2)).unwrap().len(),
                n * (n + 1) / 2,
                "closure size for n={n}"
            );
            let (db2, slow) = p.fixpoint(false);
            assert_eq!(db, db2);
            assert!(fast.rule_firings < slow.rule_firings, "n={n} k={k}");
            assert!(fast.derivations < slow.derivations, "n={n} k={k}");
        }
    }
}
