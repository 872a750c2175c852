//! Offline batch execution (§4.4, §5.3.1).
//!
//! FIRST's batch mode runs each batch job as a dedicated HPC job: the model is
//! loaded solely for that task and all requests from the input file are
//! processed with vLLM's offline batch path, with no online server in the
//! loop. Throughput is therefore engine-limited; the cold-start weight load is
//! amortised across the batch, which is why large batches (>10 000 requests)
//! are the efficient regime.

use crate::engine::{run_to_completion, EngineConfig};
use crate::request::InferenceRequest;
use first_desim::SimDuration;

/// Result summary of one offline batch run.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Number of requests in the batch.
    pub requests: usize,
    /// Total output tokens generated.
    pub output_tokens: u64,
    /// Cold-start (weight load + engine start) time.
    pub load_time: SimDuration,
    /// Total wall time of the dedicated job, including the cold start.
    pub total_duration: SimDuration,
    /// Output token throughput over the whole job (tokens / total duration).
    pub overall_tokens_per_sec: f64,
    /// Output token throughput excluding the cold start.
    pub steady_tokens_per_sec: f64,
}

impl BatchRunReport {
    /// Fraction of the job spent loading the model (cold-start overhead).
    pub fn load_fraction(&self) -> f64 {
        if self.total_duration.as_secs_f64() <= 0.0 {
            0.0
        } else {
            self.load_time.as_secs_f64() / self.total_duration.as_secs_f64()
        }
    }
}

/// Execute a batch of requests as a dedicated offline job (cold engine).
pub fn run_offline_batch(config: EngineConfig, requests: Vec<InferenceRequest>) -> BatchRunReport {
    let load_time = config.cold_start_time();
    let n = requests.len();
    let (completions, makespan, stats) = run_to_completion(config, requests, true);
    debug_assert_eq!(completions.len(), n);
    let output_tokens = stats.output_tokens;
    let total = makespan;
    let steady = total.saturating_sub(load_time);
    BatchRunReport {
        requests: n,
        output_tokens,
        load_time,
        total_duration: total,
        overall_tokens_per_sec: if total.as_secs_f64() > 0.0 {
            output_tokens as f64 / total.as_secs_f64()
        } else {
            0.0
        },
        steady_tokens_per_sec: if steady.as_secs_f64() > 0.0 {
            output_tokens as f64 / steady.as_secs_f64()
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::find_model;
    use first_hpc::GpuModel;

    fn sharegpt_like(n: u64) -> Vec<InferenceRequest> {
        // Deterministic prompt/output mix approximating the ShareGPT profile.
        (0..n)
            .map(|i| {
                let prompt = 120 + ((i * 37) % 300) as u32;
                let output = 120 + ((i * 53) % 200) as u32;
                InferenceRequest::chat(i, prompt, output)
            })
            .collect()
    }

    #[test]
    fn batch_of_1000_on_70b_matches_paper_scale() {
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let report = run_offline_batch(cfg, sharegpt_like(1000));
        // Paper: 1000 requests, ≈2117 tok/s overall, ≈409 s total.
        assert!(
            report.overall_tokens_per_sec > 800.0 && report.overall_tokens_per_sec < 3000.0,
            "tok/s {}",
            report.overall_tokens_per_sec
        );
        assert!(
            report.total_duration.as_secs_f64() > 120.0
                && report.total_duration.as_secs_f64() < 900.0,
            "duration {}",
            report.total_duration.as_secs_f64()
        );
        assert_eq!(report.requests, 1000);
    }

    #[test]
    fn cold_start_dominates_small_batches() {
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let small = run_offline_batch(cfg.clone(), sharegpt_like(20));
        let large = run_offline_batch(cfg, sharegpt_like(2000));
        assert!(
            small.load_fraction() > 0.5,
            "small load fraction {}",
            small.load_fraction()
        );
        assert!(
            large.load_fraction() < 0.3,
            "large load fraction {}",
            large.load_fraction()
        );
        // Amortisation: overall throughput approaches steady-state throughput
        // as the batch grows.
        let small_gap = small.steady_tokens_per_sec - small.overall_tokens_per_sec;
        let large_gap = large.steady_tokens_per_sec - large.overall_tokens_per_sec;
        assert!(large_gap < small_gap);
    }

    #[test]
    fn batch_mode_beats_online_interactive_throughput() {
        // The same 1000 requests served through the single-threaded direct
        // frontend achieve lower throughput than the offline batch (no serving
        // overhead), mirroring §5.3.1's 2117 tok/s vs the online numbers.
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        let report = run_offline_batch(cfg, sharegpt_like(1000));
        assert!(report.steady_tokens_per_sec > 1000.0);
    }

    #[test]
    fn empty_batch_is_handled() {
        let cfg = EngineConfig::for_model(find_model("llama-8b").unwrap(), GpuModel::A100_40);
        let report = run_offline_batch(cfg, vec![]);
        assert_eq!(report.requests, 0);
        assert_eq!(report.output_tokens, 0);
    }
}
