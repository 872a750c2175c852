//! Quickstart: stand up a FIRST deployment, authenticate a user, send a chat
//! completion through the OpenAI-compatible gateway, and inspect `/jobs`.
//!
//! Run with: `cargo run --release --example quickstart`

use first::core::{ChatCompletionRequest, DeploymentBuilder};
use first::desim::{SimProcess, SimTime};

fn main() {
    // 1. Assemble a deployment: one cluster, one compute endpoint, the model
    //    catalog registered on it, Globus-style auth in front.
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1) // keep one instance of each model hot
        .build_with_tokens();

    // 2. Check what is currently available, exactly as a user would hit /jobs.
    println!("== /jobs before the request ==");
    for entry in gateway.jobs_status() {
        println!("  {:<46} {}", entry.model, entry.state);
    }

    // 3. Send an OpenAI-style chat completion with alice's bearer token.
    let request = ChatCompletionRequest::simple(
        "meta-llama/Llama-3.3-70B-Instruct",
        "Summarize how PagedAttention improves GPU memory utilization.",
        256,
    );
    let request_id = gateway
        .chat_completions(&request, &tokens.alice, Some(200), SimTime::ZERO)
        .expect("request accepted");
    println!("\naccepted request {request_id}; dispatching through Globus Compute...");

    // 4. Drive the simulation until the response comes back.
    let mut now = SimTime::ZERO;
    while let Some(t) = SimProcess::next_event_time(&gateway) {
        now = t.max(now);
        gateway.advance(now);
        if gateway.is_drained() {
            break;
        }
    }
    for response in gateway.take_responses() {
        println!(
            "response for request {}: {} prompt + {} completion tokens in {:.2} s (endpoint {})",
            response.request_id,
            response.usage.prompt_tokens,
            response.usage.completion_tokens,
            response.latency().as_secs_f64(),
            gateway.endpoint_name(response.endpoint),
        );
    }

    // 5. The gateway logged the activity for the dashboard.
    println!("\n== metrics dashboard ==");
    print!("{}", gateway.dashboard_snapshot(now).render_text());
}
