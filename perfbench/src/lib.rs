//! The ADVM reproduction's end-to-end benchmark: three workloads driven
//! through the public API as a closed loop, every request checked
//! against a committed verdict reference, plus a traced run that times
//! each layer's public functions from outside the program.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload port_cold --seed 1 --seconds 30 --trace 0
//! ```

pub mod inputs;
pub mod refgen;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod verdict;
pub mod workloads;

/// Where runs leave their traces and scratch trees, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";
