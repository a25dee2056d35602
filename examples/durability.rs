//! Durability walkthrough: commit → crash → recover.
//!
//! The registrar database from the paper's §3, made durable: every
//! commit is appended to a write-ahead log before it is applied, and
//! recovery — here after a simulated crash that tears the log mid-record
//! — rebuilds exactly the state whose commits were acknowledged. The log
//! is the whole database: one file, `wal.log`, whose first record is a
//! checkpoint of the state (the theory and the constraints); compaction
//! replaces it with one checkpoint of the current state.
//!
//! Run with: `cargo run --example durability`

use epilog::persist::wal::WAL_FILE;
use epilog::prelude::*;
use epilog::syntax::Theory;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("epilog-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The names of the files in `dir`: a durable database is one file.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn main() {
    let dir = fresh_dir("main");

    // ----- Create + commit durably --------------------------------------
    println!("== A durable registrar at {} ==\n", dir.display());
    let theory = Theory::from_text("forall x. emp(x) -> person(x)").unwrap();
    let mut db = DurableDb::create(&dir, theory, FsyncPolicy::Always).unwrap();
    db.add_constraint(parse("forall x. K emp(x) -> exists y. K ss(x, y)").unwrap())
        .unwrap();

    let report = db
        .transaction()
        .assert(parse("emp(Mary)").unwrap())
        .assert(parse("ss(Mary, n1)").unwrap())
        .commit()
        .unwrap();
    println!("hired Mary:  {report}");
    let report = db
        .transaction()
        .assert(parse("emp(Sue)").unwrap())
        .assert(parse("ss(Sue, n2)").unwrap())
        .commit()
        .unwrap();
    println!("hired Sue:   {report}");
    println!(
        "log: the genesis checkpoint + {} records, {} bytes, LSN {}",
        db.wal_records(),
        db.wal_bytes(),
        db.last_lsn()
    );
    assert_eq!(files(&dir), [WAL_FILE]);
    println!("directory: {:?}\n", files(&dir));

    // A violating batch is refused — and leaves no log record behind.
    let err = db
        .transaction()
        .assert(parse("emp(Joe)").unwrap()) // no ss number on file
        .commit()
        .unwrap_err();
    println!("hiring Joe (no number) fails: {err}");
    println!("log still has {} records\n", db.wal_records());

    let live_receipts = (db.theory().clone(), db.last_lsn());

    // ----- Crash-simulate ----------------------------------------------
    // Copy the directory as a crashed machine would leave it, then tear
    // the last log record in half (a power cut mid-write).
    let crashed = fresh_dir("crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), crashed.join(entry.file_name())).unwrap();
    }
    let wal = crashed.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 11]).unwrap();
    println!("== Crash: tore {} bytes off the log tail ==\n", 11);

    // ----- Recover ------------------------------------------------------
    let (recovered, report) = DurableDb::recover(&crashed, FsyncPolicy::Always).unwrap();
    println!("recovery: {report}");
    println!(
        "recovered theory has {} sentences (live had {})",
        recovered.theory().len(),
        live_receipts.0.len()
    );
    // The torn record was Sue's batch: it rolls back whole. Mary's
    // acknowledged state — including what the rule derives — is intact,
    // the constraints hold, and queries answer as before the crash.
    assert_eq!(
        recovered.ask(&parse("K person(Mary)").unwrap()),
        Answer::Yes
    );
    assert_eq!(recovered.ask(&parse("K emp(Sue)").unwrap()), Answer::No);
    assert!(recovered.satisfies_constraints());
    println!(
        "K person(Mary)? {}",
        recovered.ask(&parse("K person(Mary)").unwrap())
    );
    println!(
        "K emp(Sue)?     {} (her commit was the torn record)\n",
        recovered.ask(&parse("K emp(Sue)").unwrap())
    );

    // ----- Recover the intact directory: receipts match ------------------
    let (recovered, report) = DurableDb::recover(&dir, FsyncPolicy::Always).unwrap();
    println!("recovering the intact log: {report}");
    assert_eq!(recovered.theory(), &live_receipts.0);
    assert_eq!(recovered.last_lsn(), live_receipts.1);
    assert_eq!(recovered.ask(&parse("K person(Sue)").unwrap()), Answer::Yes);
    println!("state and LSN match the live database exactly\n");

    // ----- Checkpoint + compact -----------------------------------------
    let mut recovered = recovered;
    let stats = recovered.compact().unwrap();
    println!(
        "compacted: checkpoint @{}, {} log records dropped, {} bytes reclaimed",
        stats.checkpoint_lsn, stats.records_dropped, stats.bytes_reclaimed
    );
    assert_eq!(
        (recovered.wal_records(), files(&dir)),
        (0, vec![WAL_FILE.to_string()])
    );
    drop(recovered);
    let (recovered, report) = DurableDb::recover(&dir, FsyncPolicy::Always).unwrap();
    println!("recovery after compaction: {report}");
    assert_eq!(report.records_replayed, 0);
    assert_eq!(recovered.theory(), &live_receipts.0);
    assert_eq!(recovered.ask(&parse("K person(Sue)").unwrap()), Answer::Yes);
    println!("checkpoint-only recovery reproduces the same state");
    assert_eq!(files(&dir), [WAL_FILE]);
    println!("directory: {:?}", files(&dir));

    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}
