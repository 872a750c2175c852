//! Integration tests for the federation layer (§4.5) and auto-scaling (§5.3.2)
//! exercised through the public façade.

use first::core::{ChatCompletionRequest, DeploymentBuilder};
use first::desim::{SimDuration, SimProcess, SimTime};
use first::fabric::InstanceState;
use first::hpc::JobRequest;
use first::workload::ShareGptGenerator;

const MODEL_70B: &str = "meta-llama/Llama-3.3-70B-Instruct";
const MODEL_8B: &str = "meta-llama/Meta-Llama-3.1-8B-Instruct";

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
    gateway.advance(horizon);
}

#[test]
fn federated_deployment_fails_over_when_primary_cluster_is_full() {
    let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris().build_with_tokens();
    // Saturate every Sophia node with long background jobs.
    {
        let sophia = gateway
            .service_mut()
            .endpoint_mut("sophia-endpoint")
            .unwrap();
        let nodes = sophia.cluster_status().total_nodes;
        for _ in 0..nodes {
            sophia.scheduler_mut().submit(
                JobRequest::single_node(8, SimDuration::from_hours(24)),
                SimTime::ZERO,
            );
        }
        assert_eq!(sophia.cluster_status().idle_nodes, 0);
    }
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL_8B, "where do I run?", 64),
            &tokens.alice,
            Some(64),
            SimTime::from_secs(1),
        )
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(1800));
    let response = gateway.take_responses().pop().unwrap();
    assert!(response.success);
    assert_eq!(gateway.endpoint_name(response.endpoint), "polaris-endpoint");
}

#[test]
fn requests_stick_to_the_endpoint_where_the_model_is_hot() {
    let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris().build_with_tokens();
    // Warm the model on Polaris only.
    gateway
        .service_mut()
        .endpoint_mut("polaris-endpoint")
        .unwrap()
        .prewarm(MODEL_8B, 1, SimTime::ZERO);
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL_8B, "routed to the hot instance", 64),
            &tokens.alice,
            Some(64),
            SimTime::ZERO,
        )
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(600));
    let response = gateway.take_responses().pop().unwrap();
    assert_eq!(gateway.endpoint_name(response.endpoint), "polaris-endpoint");
    assert!(
        response.latency().as_secs_f64() < 20.0,
        "hot-routed latency"
    );
}

#[test]
fn sustained_load_triggers_auto_scaling_within_the_configured_ceiling() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let mut generator = ShareGptGenerator::new(21);
    for i in 0..600u64 {
        let sample = generator.sample();
        let req = ChatCompletionRequest::simple(
            MODEL_70B,
            &format!("burst request {i}"),
            sample.output_tokens.max(8),
        );
        let _ = gateway.chat_completions(
            &req,
            &tokens.alice,
            Some(sample.output_tokens),
            SimTime::ZERO,
        );
    }
    // Let the system react for a couple of minutes of virtual time.
    drain(&mut gateway, SimTime::from_secs(180));
    let endpoint = gateway.service().endpoint("sophia-endpoint").unwrap();
    let active = endpoint
        .instances()
        .iter()
        .filter(|i| i.model == MODEL_70B && i.state != InstanceState::Released)
        .count();
    assert!(
        active >= 2,
        "expected auto-scaling beyond one instance, got {active}"
    );
    assert!(active <= 4, "auto-scaling must respect max_instances");
}

#[test]
fn instance_failure_is_restarted_and_service_recovers() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    // Kill the hot 70B instance.
    assert!(gateway
        .service_mut()
        .endpoint_mut("sophia-endpoint")
        .unwrap()
        .inject_instance_failure(MODEL_70B, SimTime::from_secs(5)));
    // A follow-up request still completes once the replacement instance loads.
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL_70B, "are you back?", 64),
            &tokens.alice,
            Some(64),
            SimTime::from_secs(10),
        )
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(1800));
    let response = gateway.take_responses().pop().unwrap();
    assert!(response.success);
    let ep = gateway.service().endpoint("sophia-endpoint").unwrap();
    assert!(ep.stats().restarts >= 1);
    assert!(ep.has_hot_instance(MODEL_70B));
}
