//! The `epilog-server` binary: serve a durable epistemic database
//! directory over TCP.
//!
//! ```text
//! epilog-server [--addr HOST:PORT] [--dir PATH] [--theory FILE] [--read-timeout SECS]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7171`; use port 0
//!   for an ephemeral port, printed on startup).
//! * `--dir` — database directory (default `./epilog-data`). Recovered
//!   if it already holds a log, initialized otherwise.
//! * `--theory` — initial theory file for a *fresh* directory (ignored
//!   when recovering; the log is the source of truth).
//! * `--read-timeout` — close sessions idle for this many seconds
//!   (default: never), so wedged clients cannot pin session threads.
//!
//! The process runs until a client sends `shutdown`, then drains the
//! commit queue, syncs the log, and exits.

use epilog_persist::{ServeOptions, ServingDb};
use epilog_server::{Server, ServerOptions};
use epilog_syntax::Theory;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut dir = "./epilog-data".to_string();
    let mut theory_path: Option<String> = None;
    let mut read_timeout: Option<Duration> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = take("--addr"),
            "--dir" => dir = take("--dir"),
            "--theory" => theory_path = Some(take("--theory")),
            "--read-timeout" => {
                let raw = take("--read-timeout");
                match raw.parse::<f64>() {
                    Ok(secs) if secs > 0.0 => {
                        read_timeout = Some(Duration::from_secs_f64(secs));
                    }
                    _ => {
                        eprintln!("--read-timeout needs a positive number of seconds, got {raw:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: epilog-server [--addr HOST:PORT] [--dir PATH] [--theory FILE] \
                     [--read-timeout SECS]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let theory = match &theory_path {
        None => Theory::empty(),
        Some(p) => {
            let src = match std::fs::read_to_string(p) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Theory::from_text(&src) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot parse {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let (db, recovery) = match ServingDb::open(&dir, theory, ServeOptions::default()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &recovery {
        Some(r) => eprintln!("recovered {dir}: {r}"),
        None => eprintln!("initialized {dir}"),
    }

    let server = match Server::start_with(db, addr.as_str(), ServerOptions { read_timeout }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("epilog-server listening on {}", server.local_addr());

    server.wait_for_shutdown_request();
    match server.shutdown() {
        Ok(stats) => {
            eprintln!(
                "shut down: {} commits in {} batches over {} fsyncs",
                stats.commits, stats.batches, stats.fsyncs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}
