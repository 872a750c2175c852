//! # first-bench — benchmark harness
//!
//! One binary per table/figure of the paper's evaluation section (run with
//! `cargo run -p first-bench --release --bin <name>`), plus shared helpers
//! for building workloads and printing paper-vs-measured comparisons. The
//! Criterion micro-benchmarks live in `benches/`.
//!
//! Every binary also emits a schema-versioned `BENCH_<name>.json` artifact
//! (see [`report`]) recording its tables plus the kernel measurement of the
//! run (wall-clock time, events processed, peak queue depth); the `perf_gate`
//! binary replays a fast scenario subset and fails when those numbers regress
//! against the baselines committed under `bench/baselines/`.

#![warn(missing_docs)]

pub mod executor;
pub mod report;

pub use executor::{aggregate_stats, PointStats, ScenarioExecutor};
pub use report::{
    baseline_dir, gate_compare, print_sim_stats, BenchArtifact, CassetteAbRun, GateMetric,
    PhaseDiff, ResilienceRow, TenantSloDiff, TraceSection,
};

use first_core::ScenarioReport;
use first_desim::{SimRng, SimTime};
use first_workload::{ArrivalProcess, ConversationSample, ShareGptGenerator};
use serde::{Deserialize, Serialize};

/// Number of requests used by the open-loop benchmarks (the paper uses 1000;
/// override with the `FIRST_BENCH_REQUESTS` environment variable).
pub fn benchmark_request_count() -> usize {
    std::env::var("FIRST_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

/// Base RNG seed used by every benchmark binary (default 42; override with
/// the `FIRST_BENCH_SEED` environment variable). Workload samples, arrival
/// processes and fault plans all derive from it, so re-running a sweep under
/// a different seed re-randomises the whole experiment while two runs under
/// the same seed reproduce identical numbers.
pub fn benchmark_seed() -> u64 {
    std::env::var("FIRST_BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The arrival-process seed derived from [`benchmark_seed`] (kept distinct
/// from the sample seed so the two streams never correlate).
pub fn arrival_seed() -> u64 {
    benchmark_seed().wrapping_mul(0x9E37_79B9).wrapping_add(7)
}

/// Deterministic ShareGPT-like samples for a benchmark run.
pub fn sharegpt_samples(n: usize, seed: u64) -> Vec<ConversationSample> {
    ShareGptGenerator::new(seed).samples(n)
}

/// Arrival times for `n` requests under the given process.
pub fn arrivals(process: ArrivalProcess, n: usize, seed: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed_from_u64(seed);
    process.arrivals(n, SimTime::ZERO, &mut rng)
}

/// A paper-vs-measured comparison row printed by every harness binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Metric name.
    pub(crate) metric: String,
    /// Value reported in the paper.
    pub(crate) paper: f64,
    /// Value measured by this reproduction.
    pub(crate) measured: f64,
}

impl Comparison {
    /// Create a comparison row.
    pub fn new(metric: &str, paper: f64, measured: f64) -> Self {
        Comparison {
            metric: metric.to_string(),
            paper,
            measured,
        }
    }

    /// Ratio measured / paper (NaN-safe).
    pub(crate) fn ratio(&self) -> f64 {
        if self.paper.abs() < 1e-12 {
            0.0
        } else {
            self.measured / self.paper
        }
    }
}

/// Print a block of paper-vs-measured comparisons.
pub fn print_comparisons(title: &str, rows: &[Comparison]) {
    println!("\n== {title}: paper vs measured ==");
    println!(
        "{:<46} {:>12} {:>12} {:>8}",
        "metric", "paper", "measured", "ratio"
    );
    for row in rows {
        println!(
            "{:<46} {:>12.2} {:>12.2} {:>7.2}x",
            row.metric,
            row.paper,
            row.measured,
            row.ratio()
        );
    }
}

/// Print a list of scenario reports as a table.
pub fn print_reports(title: &str, reports: &[ScenarioReport]) {
    println!("\n== {title} ==");
    println!("{}", ScenarioReport::table_header());
    for r in reports {
        println!("{}", r.table_row());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_ratio() {
        let c = Comparison::new("req/s", 9.2, 10.1);
        assert!((c.ratio() - 1.0978).abs() < 1e-3);
        assert_eq!(Comparison::new("x", 0.0, 5.0).ratio(), 0.0);
    }

    #[test]
    fn workload_helpers_are_deterministic() {
        let a = sharegpt_samples(20, 1);
        let b = sharegpt_samples(20, 1);
        assert_eq!(a, b);
        let arr = arrivals(ArrivalProcess::FixedRate(5.0), 10, 1);
        assert_eq!(arr.len(), 10);
        assert!(benchmark_request_count() > 0);
    }

    #[test]
    fn seeds_default_and_derive_consistently() {
        // Without the env override the defaults apply; the arrival seed is a
        // pure function of the base seed.
        let base = benchmark_seed();
        assert_eq!(
            arrival_seed(),
            base.wrapping_mul(0x9E37_79B9).wrapping_add(7)
        );
    }
}
