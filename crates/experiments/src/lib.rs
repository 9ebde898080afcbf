//! Experiment harnesses: one module (and binary) per table/figure of the
//! paper, plus the end-to-end scenario builder they all share.
//!
//! Every harness prints the rows/series the corresponding figure or table
//! reports, so EXPERIMENTS.md can compare paper-vs-measured shape by shape.
//! Run them via the workspace binaries:
//!
//! ```text
//! cargo run --release -p bgp-experiments --bin headline
//! cargo run --release -p bgp-experiments --bin fig06 -- --scale 0.5
//! cargo run --release -p bgp-experiments --bin run-all -- --quick
//! ```
//!
//! Common flags: `--seed N`, `--scale F` (world size multiplier),
//! `--days N`, `--docs N` (documented ASes), `--quick` (reduced trial
//! counts), `--json PATH` (machine-readable output where supported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod figures;
pub mod report;
pub mod scenario;

pub use args::{Args, Flags};
pub use scenario::{Scenario, ScenarioConfig};
