//! Federation demo (§4.5): requests sent to the cluster-agnostic API URL are
//! routed across Sophia and Polaris based on where the model is already
//! running, which cluster has free nodes, and finally configuration order.
//!
//! Run with: `cargo run --release --example federated_routing`

use first::core::{ChatCompletionRequest, DeploymentBuilder};
use first::desim::{SimDuration, SimProcess, SimTime};
use first::hpc::JobRequest;

const MODEL: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";

fn drain(gateway: &mut first::core::Gateway, horizon: SimTime) {
    while let Some(t) = SimProcess::next_event_time(gateway) {
        if t > horizon {
            break;
        }
        gateway.advance(t);
        if gateway.is_drained() {
            break;
        }
    }
}

fn main() {
    let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris().build_with_tokens();

    println!(
        "model '{MODEL}' is registered on: {:?}",
        gateway.registry().endpoints_for(MODEL).unwrap()
    );

    // Scenario 1: nothing is running anywhere and Sophia has idle nodes, so
    // the request goes to Sophia (free-capacity rule, configuration order).
    let request = ChatCompletionRequest::simple(MODEL, "first request: who serves me?", 64);
    gateway
        .chat_completions(&request, &tokens.alice, Some(64), SimTime::ZERO)
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(1200));
    let r1 = gateway.take_responses().pop().unwrap();
    println!(
        "\nscenario 1 (cold everywhere): served by {}",
        gateway.endpoint_name(r1.endpoint)
    );

    // Scenario 2: the model is now hot on Sophia, so subsequent requests stick
    // to the active instance for low latency.
    let t2 = r1.finished_at + SimDuration::from_secs(30);
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL, "second request: still Sophia?", 64),
            &tokens.alice,
            Some(64),
            t2,
        )
        .unwrap();
    drain(&mut gateway, t2 + SimDuration::from_secs(600));
    let r2 = gateway.take_responses().pop().unwrap();
    println!(
        "scenario 2 (hot on sophia): served by {} in {:.1} s",
        gateway.endpoint_name(r2.endpoint),
        r2.latency().as_secs_f64()
    );

    // Scenario 3: Sophia is fully occupied by other jobs and the model went
    // cold there — the federation layer fails over to Polaris, which has idle
    // nodes.
    // Three hours later the idle timeout has released Sophia's node. Bring
    // the deployment up to t3 first so the release has actually happened by
    // the time the router inspects Sophia (otherwise it still sees the stale
    // hot instance and pins the request to a cluster about to be saturated).
    let t3 = r2.finished_at + SimDuration::from_hours(3);
    gateway.advance(t3);
    {
        let sophia = gateway
            .service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap();
        let nodes = sophia.cluster_status().total_nodes;
        for _ in 0..nodes {
            sophia
                .scheduler_mut()
                .submit(JobRequest::single_node(8, SimDuration::from_hours(12)), t3);
        }
    }
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL, "third request: sophia is busy", 64),
            &tokens.alice,
            Some(64),
            t3,
        )
        .unwrap();
    drain(&mut gateway, t3 + SimDuration::from_hours(2));
    let r3 = gateway.take_responses().pop().unwrap();
    println!(
        "scenario 3 (sophia saturated): served by {} in {:.1} s",
        gateway.endpoint_name(r3.endpoint),
        r3.latency().as_secs_f64()
    );

    println!("\n== /jobs across the federation ==");
    for entry in gateway.jobs_status() {
        println!(
            "  {:<46} {:<9} running={} starting={} queued={} endpoints={:?}",
            entry.model,
            entry.state,
            entry.running_instances,
            entry.starting_instances,
            entry.queued_instances,
            entry.endpoints
        );
    }
}
