//! # avmon-bench — benchmarks and the paper's experiment harness
//!
//! Two things live here:
//!
//! 1. **The large-N perf record** (`benches/sim_large.rs`): the checker
//!    sweep, the consistency check per hasher, the Fig. 2 cross-check per
//!    period, the calendar split and the 10k / 50k end-to-end runs,
//!    written to `BENCH_sim_large.json` (`cargo bench -p avmon-bench`).
//! 2. **The experiment harness** (`src/bin/experiments.rs`): regenerates
//!    every table and figure of the paper's evaluation (§5) plus the
//!    extension experiments of DESIGN.md §4. Each run prints the series
//!    and writes a CSV under `results/`.
//!
//! ```bash
//! cargo run -p avmon-bench --release --bin experiments -- all --quick
//! cargo run -p avmon-bench --release --bin experiments -- fig3 fig7
//! cargo run -p avmon-bench --release --bin experiments -- fig17 --hours 24
//! ```

#![allow(clippy::disallowed_types, reason = "bench harness indices")]

pub mod experiments;
pub mod output;

pub use experiments::{run, ExpContext, Model, ALL_IDS};
pub use output::{f1, f3, ResultTable};
