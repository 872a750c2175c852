//! Batch-mode throughput (§4.4, §5.3.1): 1000 requests for Llama 3.3 70B run
//! as a dedicated offline job (paper: ≈2117 tok/s, ≈409 s), plus the
//! amortisation study showing cold-start cost fading for larger batches.

use first_bench::{
    benchmark_request_count, print_comparisons, print_sim_stats, BenchArtifact, Comparison,
    GateMetric,
};
use first_desim::{SimMeter, SimTime};
use first_hpc::GpuModel;
use first_serving::{find_model, run_offline_batch, EngineConfig, InferenceRequest};
use first_workload::ShareGptGenerator;

fn requests(n: usize) -> Vec<InferenceRequest> {
    ShareGptGenerator::new(first_bench::benchmark_seed())
        .samples(n)
        .into_iter()
        .enumerate()
        .map(|(i, s)| InferenceRequest::chat(i as u64, s.prompt_tokens, s.output_tokens))
        .collect()
}

fn main() {
    let model = find_model("llama-70b").unwrap();
    let cfg = EngineConfig::for_model(model.clone(), GpuModel::A100_40);

    let n = benchmark_request_count();
    let meter = SimMeter::start();
    let report = run_offline_batch(cfg.clone(), requests(n));
    println!(
        "== Batch mode — {} requests, Llama 3.3 70B ==",
        report.requests
    );
    println!(
        "load_time={:.1}s  total={:.1}s  overall={:.1} tok/s  steady={:.1} tok/s  load_fraction={:.1}%",
        report.load_time.as_secs_f64(),
        report.total_duration.as_secs_f64(),
        report.overall_tokens_per_sec,
        report.steady_tokens_per_sec,
        report.load_fraction() * 100.0
    );
    print_comparisons(
        "Batch mode (1000 requests)",
        &[
            Comparison::new(
                "overall output throughput (tok/s)",
                2117.0,
                report.overall_tokens_per_sec,
            ),
            Comparison::new(
                "total duration (s)",
                409.0,
                report.total_duration.as_secs_f64(),
            ),
        ],
    );

    println!("\n== Cold-start amortisation vs batch size ==");
    println!(
        "{:>9} {:>12} {:>14} {:>16}",
        "requests", "total (s)", "overall tok/s", "load fraction %"
    );
    let mut sim_secs = report.total_duration.as_secs_f64();
    for size in [100usize, 500, 1000, 5000, 10_000] {
        let r = run_offline_batch(cfg.clone(), requests(size));
        sim_secs += r.total_duration.as_secs_f64();
        println!(
            "{:>9} {:>12.1} {:>14.1} {:>16.1}",
            size,
            r.total_duration.as_secs_f64(),
            r.overall_tokens_per_sec,
            r.load_fraction() * 100.0
        );
    }
    println!(
        "\nShape check: for batches beyond ~10 000 requests the model-load cost is\n\
         amortised away and overall throughput approaches the steady-state rate (§5.3.1)."
    );

    let sim = meter.finish(SimTime::from_secs_f64(sim_secs));
    let artifact = BenchArtifact::new("batch_mode")
        .with_comparisons(&[
            Comparison::new("overall_tok_per_s", 2117.0, report.overall_tokens_per_sec),
            Comparison::new(
                "total_duration_s",
                409.0,
                report.total_duration.as_secs_f64(),
            ),
        ])
        .with_metric(GateMetric::higher(
            "overall_tok_per_s",
            report.overall_tokens_per_sec,
            0.02,
        ))
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
