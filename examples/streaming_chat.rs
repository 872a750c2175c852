//! Streaming chat (§4.7): send interactive chat completions through the
//! gateway, then replay each response as the stream of server-sent chunks the
//! web interface would deliver, reporting time-to-first-token and inter-token
//! latency alongside the end-to-end numbers.
//!
//! Run with: `cargo run --release --example streaming_chat`

use first::core::{stream_response, ChatCompletionRequest, DeploymentBuilder, StreamStats};
use first::desim::{SimProcess, SimTime};
use first::serving::{find_model, PerfModel};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn main() {
    // A warm single-cluster deployment: the interactive, low-latency path.
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();

    let prompts = [
        ("Explain the PBS job lifecycle on Sophia.", 180),
        (
            "Draft an abstract about federated inference on HPC clusters.",
            260,
        ),
        (
            "List three ways PagedAttention reduces KV-cache fragmentation.",
            140,
        ),
        (
            "What does a cold start involve for a 405B parameter model?",
            220,
        ),
        ("Compare batch mode and interactive mode in FIRST.", 200),
    ];
    for (i, (prompt, output_tokens)) in prompts.iter().enumerate() {
        let request = ChatCompletionRequest::simple(MODEL, prompt, 512);
        gateway
            .chat_completions(
                &request,
                &tokens.alice,
                Some(*output_tokens),
                SimTime::from_secs(i as u64 * 3),
            )
            .expect("request accepted");
    }

    // Drive the simulation to completion.
    let mut now = SimTime::ZERO;
    while let Some(t) = SimProcess::next_event_time(&gateway) {
        now = t.max(now);
        gateway.advance(now);
        if gateway.is_drained() {
            break;
        }
    }

    // Reconstruct the streaming delivery of every response.
    let spec = find_model("llama-70b").expect("catalog model");
    let perf = PerfModel::default();
    let mut stats = StreamStats::new();

    println!("== streamed responses ==");
    for response in gateway.take_responses() {
        let stream = stream_response(&response, &spec, &perf);
        println!(
            "request {:>2}: {:>3} tokens, TTFT {:>5.2} s, mean ITL {:>5.1} ms, total {:>5.2} s, {} chunks",
            stream.request_id,
            stream.output_tokens(),
            stream.ttft().as_secs_f64(),
            stream.mean_inter_token_latency() * 1000.0,
            stream.total_latency().as_secs_f64(),
            stream.chunks.len(),
        );
        // Show the first few chunks of the first response as a timeline.
        if stream.request_id == 1 {
            for chunk in stream.chunks.iter().take(5) {
                println!(
                    "    chunk {:>3} (+{} tok) delivered at t={:.3} s",
                    chunk.index,
                    chunk.tokens,
                    chunk.at.as_secs_f64()
                );
            }
            println!("    ...");
        }
        stats.record(&stream);
    }

    println!("\n== interactive-experience summary ==");
    println!("{}", stats.summary());
}
