//! `bgpcomm` — BGP community intent inference from the command line.
//!
//! ```text
//! bgpcomm stats    --mrt rib.mrt [--mrt updates.mrt ...]
//! bgpcomm infer    --mrt rib.mrt [--gap 140] [--ratio 160] [--dict dict.json]
//!                  [--siblings as2org.json] [--json out.json]
//! bgpcomm generate --out DIR [--scale 1.0] [--seed N] [--days 7]
//! ```
//!
//! * `stats` — dataset overview: records, unique tuples/paths, communities.
//! * `infer` — run the IMC'23 method over MRT archives; optionally evaluate
//!   against a dictionary (JSON, as produced by `generate`) and write the
//!   inferred labels as JSON.
//! * `shard` — `infer` across N supervised worker subprocesses with
//!   crash/stall recovery; merged output is bit-identical to one process.
//! * `watch` — long-running streaming daemon over a continuous update
//!   feed: rolling windows, incremental reclassification, bounded ingest
//!   queue, reconnects, and crash-recovering checkpoints.
//! * `query` — serve point/batch label lookups from an artifact written by
//!   `infer/shard/watch --artifact-out`, and `--check` archives for routes
//!   whose observed communities contradict their inferred intent.
//! * `feed` — serve an MRT byte stream over TCP with the watch resume
//!   protocol (tests, demos, CI).
//! * `generate` — build a synthetic world and write MRT archives plus the
//!   ground-truth dictionary, for testing and demos without RouteViews
//!   access.

use std::process::ExitCode;

mod commands;

/// Restore the default SIGPIPE disposition so `bgpcomm ... | head` exits
/// quietly instead of panicking on the broken pipe (Rust ignores SIGPIPE
/// by default, turning writes to a closed pipe into `println!` panics).
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let mut args = std::env::args().skip(1);
    let command = args.next();
    let rest: Vec<String> = args.collect();
    let outcome = match command.as_deref() {
        Some("--help") | Some("-h") | Some("help") | None => {
            eprint!("{}", commands::USAGE);
            return ExitCode::SUCCESS;
        }
        Some(name) => commands::run(name, rest),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("bgpcomm: {}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
