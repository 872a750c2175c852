//! Cold start and model availability (§4.3): queue wait + weight-load time by
//! model size, and the `/jobs` states a user observes while a model spins up.

use first_bench::{print_sim_stats, BenchArtifact, GateMetric};
use first_core::{ChatCompletionRequest, DeploymentBuilder};
use first_desim::{SimMeter, SimProcess, SimTime};
use first_hpc::GpuModel;
use first_serving::{find_model, EngineConfig};

fn main() {
    let meter = SimMeter::start();
    let mut artifact = BenchArtifact::new("cold_start");
    println!("== Cold-start model: weight load + engine start by model size ==");
    println!(
        "{:<44} {:>8} {:>6} {:>14}",
        "model", "GPUs", "nodes", "cold start (s)"
    );
    for name in [
        "Qwen/Qwen2.5-7B-Instruct",
        "meta-llama/Meta-Llama-3.1-8B-Instruct",
        "google/gemma-2-27b-it",
        "Qwen/Qwen2.5-32B-Instruct",
        "meta-llama/Llama-3.3-70B-Instruct",
        "mistralai/Mixtral-8x22B-Instruct-v0.1",
        "meta-llama/Meta-Llama-3.1-405B-Instruct",
    ] {
        let spec = find_model(name).expect("catalog model");
        let cfg = EngineConfig::for_model(spec.clone(), GpuModel::A100_40);
        let cold = cfg.cold_start_time().as_secs_f64();
        println!(
            "{:<44} {:>8} {:>6} {:>14.1}",
            spec.name, cfg.tensor_parallel, cfg.nodes, cold
        );
        let short = name.rsplit('/').next().unwrap_or(name);
        artifact = artifact.with_metric(GateMetric::lower(
            &format!("cold_start_s_{short}"),
            cold,
            0.02,
        ));
    }
    println!(
        "\nShape check: an 8B model loads in well under two minutes while the 405B\n\
         model needs multi-node coordination and takes several times longer (§4.3)."
    );

    // /jobs lifecycle: queued → starting → running for a cold 70B request.
    let (mut gateway, tokens) = DeploymentBuilder::sophia_single_instance().build_with_tokens();
    let model = "meta-llama/Llama-3.3-70B-Instruct";
    let req = ChatCompletionRequest::simple(model, "warm this model up please", 64);
    gateway
        .chat_completions(&req, &tokens.alice, Some(64), SimTime::ZERO)
        .expect("request accepted");
    println!("\n== /jobs status while a cold Llama 3.3 70B request is served ==");
    println!(
        "{:>10} {:>12} {:>8} {:>9} {:>8}",
        "t (s)", "state", "running", "starting", "queued"
    );
    let mut printed_done = false;
    let mut driven_to = SimTime::ZERO;
    for t in [1u64, 10, 30, 60, 90, 120, 150, 200, 300, 600] {
        gateway.advance(SimTime::from_secs(t));
        driven_to = SimTime::from_secs(t);
        let jobs = gateway.jobs_status();
        let entry = jobs.iter().find(|j| j.model == model).expect("registered");
        println!(
            "{:>10} {:>12} {:>8} {:>9} {:>8}",
            t,
            entry.state,
            entry.running_instances,
            entry.starting_instances,
            entry.queued_instances
        );
        if entry.state == "running" && !printed_done {
            printed_done = true;
        }
    }
    let responses = gateway.take_responses();
    if let Some(r) = responses.first() {
        println!(
            "\nfirst response returned after {:.1} s (cold start dominated)",
            r.latency().as_secs_f64()
        );
        artifact = artifact.with_metric(GateMetric::lower(
            "cold_first_response_s",
            r.latency().as_secs_f64(),
            0.02,
        ));
    }

    // The /jobs lifecycle drive is the only simulated span in this binary.
    let sim = meter.finish(driven_to);
    let artifact = artifact
        .with_metric(GateMetric::lower("sim_wall_time_s", sim.wall_time_s, 2.0))
        .with_sim(sim);
    print_sim_stats(&artifact.sim);
    artifact.write().expect("artifact written");
}
