//! Deployment-scale trace generator (§1, §4).
//!
//! The production deployment processed 8.7 million inference tasks from 76
//! users over ten months: about 4.1 million single interactive requests plus
//! 4.6 million requests packaged into 49 batch jobs, generating over 10
//! billion tokens. This module generates a statistically similar trace
//! (scaled down by a configurable factor) for the deployment-replay experiment
//! and the metrics/dashboard tests.

use crate::sharegpt::ShareGptGenerator;
use first_desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Kind of trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEntryKind {
    /// A single interactive API request.
    Interactive,
    /// A request that is part of a batch job.
    BatchMember,
}

/// One request in the deployment trace.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Arrival time (relative to the start of the trace).
    pub at: SimTime,
    /// Submitting user index (0..num_users).
    pub user: u32,
    /// Target model index into the configured model mix.
    pub model_index: usize,
    /// Prompt tokens.
    pub prompt_tokens: u32,
    /// Output tokens.
    pub output_tokens: u32,
    /// Interactive or batch-member.
    pub kind: TraceEntryKind,
}

/// Configuration of the scaled deployment trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentTraceConfig {
    /// Number of distinct users (paper: 76).
    pub users: u32,
    /// Total interactive requests in the full deployment (paper: ≈4.1 M).
    pub interactive_requests: u64,
    /// Total batch-member requests (paper: ≈4.6 M across 49 batch jobs).
    pub batch_requests: u64,
    /// Number of batch jobs (paper: 49).
    pub batch_jobs: u32,
    /// Length of the deployment window (paper: ~10 months).
    pub window: SimDuration,
    /// Scale-down factor applied to request counts (1 = full size).
    pub scale_down: u64,
    /// Model-popularity weights (Zipf-like skew over the catalog).
    pub model_weights: Vec<f64>,
}

impl Default for DeploymentTraceConfig {
    fn default() -> Self {
        DeploymentTraceConfig {
            users: 76,
            interactive_requests: 4_100_000,
            batch_requests: 4_600_000,
            batch_jobs: 49,
            window: SimDuration::from_hours(10 * 30 * 24),
            scale_down: 10_000,
            model_weights: vec![0.38, 0.22, 0.14, 0.09, 0.07, 0.05, 0.03, 0.02],
        }
    }
}

/// The generated trace plus summary counters.
#[derive(Debug, Clone)]
pub struct DeploymentTrace {
    /// All entries sorted by arrival time.
    pub entries: Vec<TraceEntry>,
    /// Number of interactive entries.
    pub interactive: u64,
    /// Number of batch-member entries.
    pub batch_members: u64,
    /// Number of distinct batch jobs present.
    pub batch_jobs: u32,
}

/// Generate a scaled deployment trace.
pub fn generate_trace(config: &DeploymentTraceConfig, seed: u64) -> DeploymentTrace {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xD3_9107);
    let mut lengths = ShareGptGenerator::new(seed ^ 0x7AC3);
    let scale = config.scale_down.max(1);
    let n_interactive = (config.interactive_requests / scale).max(1);
    let n_batch = (config.batch_requests / scale).max(1);
    let window_secs = config.window.as_secs_f64();

    let mut entries: Vec<TraceEntry> = Vec::with_capacity((n_interactive + n_batch) as usize);

    // Interactive requests: diurnal-ish Poisson over the window, user skew.
    for _ in 0..n_interactive {
        let at = SimTime::from_secs_f64(rng.uniform(0.0, window_secs));
        let s = lengths.sample();
        entries.push(TraceEntry {
            at,
            user: rng.zipf(config.users as usize, 1.1) as u32,
            model_index: rng.weighted_index(&config.model_weights),
            prompt_tokens: s.prompt_tokens,
            output_tokens: s.output_tokens,
            kind: TraceEntryKind::Interactive,
        });
    }

    // Batch jobs: each batch arrives at one instant and contributes many
    // members with longer outputs (synthetic-data generation style).
    let per_batch = (n_batch / config.batch_jobs.max(1) as u64).max(1);
    for _ in 0..config.batch_jobs {
        let at = SimTime::from_secs_f64(rng.uniform(0.0, window_secs));
        let user = rng.zipf(config.users as usize, 1.1) as u32;
        let model_index = rng.weighted_index(&config.model_weights);
        for _ in 0..per_batch {
            let s = lengths.sample();
            entries.push(TraceEntry {
                at,
                user,
                model_index,
                prompt_tokens: s.prompt_tokens,
                output_tokens: s.output_tokens.saturating_mul(4).min(2048),
                kind: TraceEntryKind::BatchMember,
            });
        }
    }

    entries.sort_by_key(|e| e.at);
    let interactive = entries
        .iter()
        .filter(|e| e.kind == TraceEntryKind::Interactive)
        .count() as u64;
    let batch_members = entries.len() as u64 - interactive;
    DeploymentTrace {
        interactive,
        batch_members,
        batch_jobs: config.batch_jobs,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_trace_preserves_interactive_batch_split() {
        let trace = generate_trace(&DeploymentTraceConfig::default(), 1);
        let total = trace.interactive + trace.batch_members;
        // Paper split: 4.1 M interactive vs 4.6 M batch (≈47% / 53%).
        let frac = trace.interactive as f64 / total as f64;
        assert!(frac > 0.35 && frac < 0.60, "interactive fraction {frac}");
        assert_eq!(trace.batch_jobs, 49);
    }

    #[test]
    fn entries_are_time_sorted_and_within_window() {
        let config = DeploymentTraceConfig::default();
        let trace = generate_trace(&config, 2);
        assert!(trace.entries.windows(2).all(|w| w[0].at <= w[1].at));
        let end = config.window.as_secs_f64();
        assert!(trace
            .entries
            .iter()
            .all(|e| e.at.as_secs_f64() <= end + 1.0));
    }

    #[test]
    fn user_activity_is_skewed() {
        let trace = generate_trace(&DeploymentTraceConfig::default(), 3);
        let mut per_user = vec![0u64; 76];
        for e in &trace.entries {
            per_user[e.user as usize] += 1;
        }
        let max = *per_user.iter().max().unwrap();
        let median = {
            let mut v = per_user.clone();
            v.sort_unstable();
            v[38]
        };
        assert!(
            max > 3 * median.max(1),
            "expected heavy users, max {max} median {median}"
        );
    }

    #[test]
    fn batch_members_share_arrival_and_model() {
        let config = DeploymentTraceConfig::default();
        let trace = generate_trace(&config, 4);
        // Each batch job's members arrive at one instant with one model.
        let mut model_at = std::collections::BTreeMap::new();
        for e in &trace.entries {
            if e.kind == TraceEntryKind::BatchMember {
                assert_eq!(
                    *model_at.entry(e.at).or_insert(e.model_index),
                    e.model_index
                );
            }
        }
        assert!(!model_at.is_empty());
        assert!(model_at.len() <= config.batch_jobs as usize);
    }

    #[test]
    fn scale_down_controls_size() {
        let mut cfg = DeploymentTraceConfig {
            scale_down: 100_000,
            ..DeploymentTraceConfig::default()
        };
        let small = generate_trace(&cfg, 5);
        cfg.scale_down = 10_000;
        let big = generate_trace(&cfg, 5);
        assert!(big.entries.len() > 5 * small.entries.len());
    }
}
