//! Model evaluation and comparison (case study §6.1): benchmark a suite of
//! hosted models against the same prompt set through the gateway, swapping
//! models instantly without any manual redeployment.
//!
//! Run with: `cargo run --release --example model_evaluation`

use first::core::{ChatCompletionRequest, DeploymentBuilder};
use first::desim::{SimProcess, SimTime};
use first::workload::ShareGptGenerator;

fn main() {
    // Host a spread of model sizes on the full Sophia deployment.
    let (mut gateway, tokens) = DeploymentBuilder::sophia().prewarm(1).build_with_tokens();

    let evaluated_models = [
        "meta-llama/Meta-Llama-3.1-8B-Instruct",
        "google/gemma-2-27b-it",
        "Qwen/Qwen2.5-32B-Instruct",
        "meta-llama/Llama-3.3-70B-Instruct",
        "argonne-private/AuroraGPT-7B",
    ];
    let prompts_per_model = 40usize;
    let mut generator = ShareGptGenerator::new(99).with_text();

    println!(
        "evaluating {} models x {} prompts each through the gateway",
        evaluated_models.len(),
        prompts_per_model
    );

    let mut clock = SimTime::ZERO;
    println!(
        "\n{:<46} {:>8} {:>12} {:>14} {:>12}",
        "model", "prompts", "tokens out", "median lat (s)", "tok/s"
    );
    for model in evaluated_models {
        // Submit the evaluation set for this model.
        let mut ids = Vec::new();
        for i in 0..prompts_per_model {
            let sample = generator.sample();
            let req = ChatCompletionRequest::simple(
                model,
                &format!("[eval {i}] {}", sample.prompt_text),
                sample.output_tokens.max(16),
            );
            let at = clock + first::desim::SimDuration::from_millis(200 * i as u64);
            // AuroraGPT is group-restricted: alice has access.
            if let Ok(id) =
                gateway.chat_completions(&req, &tokens.alice, Some(sample.output_tokens), at)
            {
                ids.push(id);
            }
        }
        // Drain this model's evaluation before moving to the next one — the
        // "instant swap" is just targeting a different model name.
        let mut now = clock;
        while let Some(t) = SimProcess::next_event_time(&gateway) {
            now = t;
            gateway.advance(now);
            if gateway.is_drained() {
                break;
            }
        }
        let responses = gateway.take_responses();
        let mut latencies: Vec<f64> = responses
            .iter()
            .filter(|r| ids.contains(&r.request_id) && r.success)
            .map(|r| r.latency().as_secs_f64())
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tokens_out: u64 = responses
            .iter()
            .filter(|r| ids.contains(&r.request_id))
            .map(|r| r.usage.completion_tokens as u64)
            .sum();
        let span = responses
            .iter()
            .map(|r| r.finished_at.as_secs_f64())
            .fold(0.0f64, f64::max)
            - clock.as_secs_f64();
        let median = latencies.get(latencies.len() / 2).copied().unwrap_or(0.0);
        println!(
            "{:<46} {:>8} {:>12} {:>14.1} {:>12.1}",
            model,
            latencies.len(),
            tokens_out,
            median,
            tokens_out as f64 / span.max(1e-9)
        );
        clock = now + first::desim::SimDuration::from_secs(60);
    }

    println!("\n== per-model usage recorded by the gateway ==");
    let registry = gateway.registry();
    for (model, row) in gateway.log().summary().models(|m| registry.model_name(m)) {
        println!(
            "  {:<46} {:>6} requests {:>10} tokens",
            model, row.usage.requests, row.usage.total_tokens
        );
    }
    println!(
        "\nTotal requests logged: {} (model swaps required no redeployment, matching §6.1).",
        gateway.log().len()
    );
}
