//! Cross-crate integration tests: the full request path from authentication
//! through the gateway, the compute fabric, the batch scheduler and the
//! serving engine, exercised through the root façade crate.

use first::core::{
    check_run_invariants, ChatCompletionRequest, DeploymentBuilder, EmbeddingRequest, GatewayError,
    RunLedger,
};
use first::desim::{SimDuration, SimProcess, SimTime};
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
fn hot_and_cold_requests_complete_through_the_full_stack() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();

    // Hot path: the 70B model is pre-warmed.
    let hot = ChatCompletionRequest::simple(MODEL_70B, "hot path question", 128);
    gateway
        .chat_completions(&hot, &tokens.alice, Some(128), SimTime::ZERO)
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(600));
    let hot_resp = gateway.take_responses().pop().unwrap();
    assert!(hot_resp.success);
    assert!(hot_resp.latency().as_secs_f64() < 20.0);

    // Cold path on a fresh deployment (no prewarm): the same request triggers
    // node acquisition + weight loading, so it takes minutes instead.
    let (mut cold_gateway, cold_tokens) =
        DeploymentBuilder::single_cluster_test().build_with_tokens();
    cold_gateway
        .chat_completions(&hot, &cold_tokens.alice, Some(128), SimTime::ZERO)
        .unwrap();
    drain(&mut cold_gateway, SimTime::from_secs(1800));
    let cold_resp = cold_gateway.take_responses().pop().unwrap();
    assert!(cold_resp.success);
    assert!(
        cold_resp.latency().as_secs_f64() > hot_resp.latency().as_secs_f64() + 60.0,
        "cold {} vs hot {}",
        cold_resp.latency().as_secs_f64(),
        hot_resp.latency().as_secs_f64()
    );
}

#[test]
fn many_concurrent_users_share_the_deployment() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let mut generator = ShareGptGenerator::new(5);
    let users = [&tokens.alice, &tokens.bob];
    let mut expected = 0usize;
    for i in 0..60u64 {
        let sample = generator.sample();
        let req = ChatCompletionRequest::simple(
            MODEL_8B,
            &format!("request number {i} about a scientific dataset"),
            sample.output_tokens.max(8),
        );
        let token = users[(i % 2) as usize];
        let at = SimTime::from_millis(250 * i);
        if gateway
            .chat_completions(&req, token, Some(sample.output_tokens), at)
            .is_ok()
        {
            expected += 1;
        }
    }
    drain(&mut gateway, SimTime::from_secs(3600));
    let responses = gateway.take_responses();
    assert_eq!(responses.len(), expected);
    assert!(responses.iter().all(|r| r.success));
    // Both users appear in the request log, which feeds the dashboard.
    let summary = gateway.log().summary();
    let by_user = summary.users();
    assert_eq!(by_user.len(), 2);
    assert_eq!((by_user[0].0, by_user[1].0), ("alice", "bob"));
    assert!(by_user.iter().all(|(_, usage)| usage.requests > 0));
    // The run also satisfies the scenario-matrix invariants: conservation
    // and an empty task slab after draining.
    let ledger = RunLedger {
        offered: 60,
        accepted: expected,
        rejected: 60 - expected,
        completed: responses.iter().filter(|r| r.success).count(),
        failed: responses.iter().filter(|r| !r.success).count(),
        drained: gateway.is_drained(),
        ..RunLedger::new()
    };
    check_run_invariants(&gateway, &ledger)
        .unwrap_or_else(|v| panic!("invariants violated: {v:?}"));
}

#[test]
fn authorization_failures_never_reach_the_cluster() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    // Forged token.
    let req = ChatCompletionRequest::simple(MODEL_70B, "let me in", 32);
    let err = gateway
        .chat_completions(
            &req,
            &first::auth::TokenString::new("forged"),
            None,
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(err, GatewayError::Unauthorized(_)));
    // Restricted model for a non-member.
    let aurora = ChatCompletionRequest::simple("argonne-private/AuroraGPT-7B", "hi", 32);
    let err = gateway
        .chat_completions(&aurora, &tokens.bob, None, SimTime::ZERO)
        .unwrap_err();
    assert!(matches!(err, GatewayError::Forbidden(_)));
    // Nothing was submitted to the compute service.
    assert_eq!(gateway.service().stats().submitted, 0);
    assert_eq!(gateway.log().len(), 0);
}

#[test]
fn embeddings_and_chat_share_one_gateway() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    gateway
        .embeddings(
            &EmbeddingRequest {
                model: "nvidia/NV-Embed-v2".to_string(),
                input: vec!["paragraph one".into(), "paragraph two".into()],
            },
            &tokens.alice,
            SimTime::ZERO,
        )
        .unwrap();
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL_8B, "and a chat request", 64),
            &tokens.alice,
            Some(64),
            SimTime::from_secs(1),
        )
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(600));
    let responses = gateway.take_responses();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.success));
}

#[test]
fn hot_nodes_are_released_after_the_idle_timeout() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    gateway
        .chat_completions(
            &ChatCompletionRequest::simple(MODEL_70B, "one and done", 64),
            &tokens.alice,
            Some(64),
            SimTime::ZERO,
        )
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(600));
    assert_eq!(gateway.take_responses().len(), 1);
    let busy_before = {
        let status = gateway
            .service()
            .endpoint("sophia-endpoint")
            .unwrap()
            .cluster_status();
        status.total_gpus - status.free_gpus
    };
    assert!(busy_before > 0);
    // Three idle hours later (idle timeout is two hours) the GPUs are free.
    gateway.advance(SimTime::from_secs(600) + SimDuration::from_hours(3));
    let status = gateway
        .service()
        .endpoint("sophia-endpoint")
        .unwrap()
        .cluster_status();
    assert_eq!(status.free_gpus, status.total_gpus);
}
