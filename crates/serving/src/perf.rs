//! Hardware performance model.
//!
//! Calibrated against the paper's Sophia numbers (§5.2, §5.3): a Llama 3.3
//! 70B instance on one 8×A100 node peaks around 1400–1800 output tokens/s
//! under continuous batching, a Llama 3.1 8B TP=4 instance several times
//! higher, and cold starts are dominated by weight loading that scales with
//! the model's parameter count (§4.3).

use crate::model::ModelSpec;
use first_desim::SimDuration;
use first_hpc::GpuModel;

/// Tunable coefficients of the serving performance model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Per-decode-step base time coefficient, seconds × (TP × rel-throughput)
    /// per billion parameters. Sets the single-stream generation rate.
    pub(crate) decode_base_coeff: f64,
    /// Per-decode-step incremental time per running sequence, same units.
    /// Sets the saturated aggregate token throughput (1/k).
    pub(crate) decode_incr_coeff: f64,
    /// Prefill throughput coefficient: tokens/s × billion-params /
    /// (TP × rel-throughput).
    pub(crate) prefill_coeff: f64,
    /// Fixed serving-engine startup time (process launch, CUDA graphs,
    /// scheduler init) independent of model size.
    pub(crate) engine_startup: SimDuration,
    /// Additional coordination time per extra node for multi-node models.
    pub(crate) per_node_coordination: SimDuration,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            // 70B at TP=8 on A100-40: base ≈ 13.8 ms/step → ~72 tok/s single
            // stream; incremental ≈ 0.5 ms/seq → ~2000 tok/s asymptote, ~1750
            // tok/s at a 200-sequence batch.
            decode_base_coeff: 0.00158,
            decode_incr_coeff: 0.0000571,
            prefill_coeff: 70_000.0,
            engine_startup: SimDuration::from_secs(55),
            per_node_coordination: SimDuration::from_secs(45),
        }
    }
}

impl PerfModel {
    /// Effective compute scale: tensor-parallel degree × relative GPU speed.
    fn effective_compute(&self, gpu: GpuModel, tp: u32) -> f64 {
        (tp.max(1) as f64) * gpu.relative_throughput()
    }

    /// Duration of one continuous-batching decode step with `batch` running
    /// sequences (each sequence gains one token per step).
    pub fn decode_step_time(
        &self,
        model: &ModelSpec,
        gpu: GpuModel,
        tp: u32,
        batch: usize,
    ) -> SimDuration {
        let scale = model.params_b / self.effective_compute(gpu, tp);
        let secs =
            self.decode_base_coeff * scale + self.decode_incr_coeff * scale * batch.max(1) as f64;
        SimDuration::from_secs_f64(secs)
    }

    /// Time to prefill a prompt of `prompt_tokens`.
    pub fn prefill_time(
        &self,
        model: &ModelSpec,
        gpu: GpuModel,
        tp: u32,
        prompt_tokens: u32,
    ) -> SimDuration {
        let tps = self.prefill_coeff * self.effective_compute(gpu, tp) / model.params_b.max(0.1);
        SimDuration::from_secs_f64(prompt_tokens as f64 / tps.max(1.0))
    }

    /// Cold-start weight-load time: read the weights from node-local storage
    /// into GPU memory across the tensor-parallel group, plus engine startup
    /// and multi-node coordination (§4.3).
    pub(crate) fn weight_load_time(
        &self,
        model: &ModelSpec,
        gpu: GpuModel,
        tp: u32,
        nodes: u32,
    ) -> SimDuration {
        let bandwidth = gpu.weight_load_gbps() * tp.max(1) as f64;
        let load = SimDuration::from_secs_f64(model.weight_gb() / bandwidth.max(0.1));
        let coordination = self
            .per_node_coordination
            .mul_f64(nodes.saturating_sub(1) as f64);
        load + self.engine_startup + coordination
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::find_model;

    fn model70() -> ModelSpec {
        find_model("llama-70b").unwrap()
    }
    fn model8() -> ModelSpec {
        find_model("llama-8b").unwrap()
    }

    #[test]
    fn llama70b_peak_throughput_matches_paper_scale() {
        let perf = PerfModel::default();
        // Paper single-instance peaks: 1432–1757 tok/s.
        let at_200 = 200.0
            / perf
                .decode_step_time(&model70(), GpuModel::A100_40, 8, 200)
                .as_secs_f64();
        assert!(at_200 > 1300.0 && at_200 < 2000.0, "at_200 was {at_200}");
    }

    #[test]
    fn llama8b_is_much_faster_than_70b() {
        let perf = PerfModel::default();
        let step = |model: &ModelSpec, tp| {
            200.0
                / perf
                    .decode_step_time(model, GpuModel::A100_40, tp, 200)
                    .as_secs_f64()
        };
        assert!(step(&model8(), 4) > 2.0 * step(&model70(), 8));
    }

    #[test]
    fn single_stream_rates_are_plausible() {
        let perf = PerfModel::default();
        let rate = |model: &ModelSpec, tp| {
            1.0 / perf
                .decode_step_time(model, GpuModel::A100_40, tp, 1)
                .as_secs_f64()
        };
        let r70 = rate(&model70(), 8);
        assert!(r70 > 40.0 && r70 < 120.0, "r70 was {r70}");
        let r8 = rate(&model8(), 4);
        assert!(r8 > r70);
    }

    #[test]
    fn step_time_grows_with_batch() {
        let perf = PerfModel::default();
        let small = perf.decode_step_time(&model70(), GpuModel::A100_40, 8, 1);
        let large = perf.decode_step_time(&model70(), GpuModel::A100_40, 8, 256);
        assert!(large > small);
    }

    #[test]
    fn prefill_time_scales_with_prompt_length() {
        let perf = PerfModel::default();
        let short = perf.prefill_time(&model70(), GpuModel::A100_40, 8, 100);
        let long = perf.prefill_time(&model70(), GpuModel::A100_40, 8, 1000);
        assert!(long.as_secs_f64() > 9.0 * short.as_secs_f64());
        // A 220-token prompt on 70B should prefill in well under a second.
        let typical = perf.prefill_time(&model70(), GpuModel::A100_40, 8, 220);
        assert!(typical.as_secs_f64() < 1.0);
    }

    #[test]
    fn cold_start_scales_with_model_size() {
        let perf = PerfModel::default();
        let m8 = perf.weight_load_time(&model8(), GpuModel::A100_40, 4, 1);
        let m70 = perf.weight_load_time(&model70(), GpuModel::A100_40, 8, 1);
        let m405 =
            perf.weight_load_time(&find_model("llama-405b").unwrap(), GpuModel::A100_40, 16, 2);
        assert!(m8 < m70);
        assert!(m70 < m405);
        // §4.3: 8B loads "relatively quickly"; 405B takes much longer.
        assert!(m8.as_secs_f64() < 70.0);
        assert!(m405.as_secs_f64() > 100.0);
    }

    #[test]
    fn faster_gpus_reduce_step_time() {
        let perf = PerfModel::default();
        let a100 = perf.decode_step_time(&model70(), GpuModel::A100_40, 8, 64);
        let h100 = perf.decode_step_time(&model70(), GpuModel::H100, 8, 64);
        assert!(h100 < a100);
    }
}
