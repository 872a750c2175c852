//! Cross-crate integration tests for the monitoring surface (§3.1.1),
//! streaming (§4.7), token lifecycle (§4.6), fault tolerance (§3.2.2) and the
//! federation-policy extensions (§7), exercised through the public façade.

use first::core::{
    stream_response, ChatCompletionRequest, DeploymentBuilder, Gateway, GatewayError,
    RoutingPolicy, StreamStats,
};
use first::desim::{SimDuration, SimProcess, SimTime};
use first::serving::{find_model, PerfModel};
use first::telemetry::{render_prometheus, LabelSet};

const MODEL_70B: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn drain(gateway: &mut Gateway, horizon: SimTime) {
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

fn hours(h: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_hours(h)
}

#[test]
fn access_tokens_expire_after_48_hours_and_refresh_restores_access() {
    use first::auth::{Identity, Scope, UserId};

    let (mut gateway, _tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();

    // Carol logs in herself (interactive OAuth flow) and keeps her refresh
    // token, exactly as the paper's helper script does for users.
    gateway.auth_mut().enroll_user(&UserId::new("carol"));
    let (carol, _) = gateway
        .auth_mut()
        .login(
            &Identity::new("carol", "anl.gov").with_project("materials"),
            &[Scope::InferenceApi],
            SimTime::ZERO,
        )
        .expect("carol login");
    let refresh = carol.refresh_token.clone().expect("refresh token issued");

    let request = ChatCompletionRequest::simple(MODEL_70B, "how long is my token valid?", 64);

    // Within the 48-hour lifetime the token works.
    assert!(gateway
        .chat_completions(&request, &carol.token, Some(64), hours(47))
        .is_ok());

    // After 48 hours it is rejected.
    let err = gateway
        .chat_completions(&request, &carol.token, Some(64), hours(49))
        .unwrap_err();
    assert!(matches!(err, GatewayError::Unauthorized(_)), "{err:?}");

    // Refreshing mints a new 48-hour token that is accepted again, and the
    // old access token stays dead.
    let (renewed, _) = gateway
        .auth_mut()
        .refresh(&refresh, hours(49))
        .expect("refresh succeeds");
    assert!(gateway
        .chat_completions(&request, &renewed.token, Some(64), hours(50))
        .is_ok());
    assert!(gateway
        .chat_completions(&request, &carol.token, Some(64), hours(50))
        .is_err());
}

#[test]
fn revoked_tokens_are_rejected_immediately() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    let request = ChatCompletionRequest::simple(MODEL_70B, "hello", 32);
    assert!(gateway
        .chat_completions(&request, &tokens.bob, Some(32), SimTime::ZERO)
        .is_ok());
    gateway.auth_mut().revoke(&tokens.bob).expect("revocation");
    // The auth middleware caches introspections briefly; a later request
    // (outside the cache window) must observe the revocation.
    let err = gateway
        .chat_completions(&request, &tokens.bob, Some(32), hours(1))
        .unwrap_err();
    assert!(matches!(err, GatewayError::Unauthorized(_)), "{err:?}");
}

#[test]
fn instance_failure_is_restarted_and_requests_keep_completing() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();

    // Serve one request on the healthy instance.
    let request = ChatCompletionRequest::simple(MODEL_70B, "first question", 96);
    gateway
        .chat_completions(&request, &tokens.alice, Some(96), SimTime::ZERO)
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(120));
    assert_eq!(gateway.take_responses().len(), 1);

    // Kill the serving process (§3.2.2: process-management scripts monitor
    // health and restart failed instances automatically).
    let killed = gateway
        .service_mut()
        .endpoint_mut("sophia-endpoint")
        .unwrap()
        .inject_instance_failure(MODEL_70B, SimTime::from_secs(121));
    assert!(killed, "an instance should have been running to kill");

    // A follow-up request still completes after the automatic restart.
    let request = ChatCompletionRequest::simple(MODEL_70B, "second question after the crash", 96);
    gateway
        .chat_completions(&request, &tokens.alice, Some(96), SimTime::from_secs(125))
        .unwrap();
    drain(&mut gateway, SimTime::from_secs(1200));
    let responses = gateway.take_responses();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].success);
    let ep = gateway.service().endpoint("sophia-endpoint").unwrap();
    assert!(
        ep.stats().restarts >= 1,
        "restart counter: {}",
        ep.stats().restarts
    );
}

#[test]
fn dashboard_and_prometheus_export_agree_with_the_request_log() {
    let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris()
        .prewarm(1)
        .build_with_tokens();
    for i in 0..12u64 {
        let request =
            ChatCompletionRequest::simple(MODEL_70B, &format!("observability question {i}"), 256);
        gateway
            .chat_completions(
                &request,
                &tokens.alice,
                Some(150),
                SimTime::from_secs(i * 5),
            )
            .unwrap();
    }
    drain(&mut gateway, SimTime::from_secs(3600));
    let completed = gateway
        .take_responses()
        .iter()
        .filter(|r| r.success)
        .count();
    assert_eq!(completed, 12);

    let snapshot = gateway.dashboard_snapshot(SimTime::from_secs(3600));
    assert_eq!(snapshot.total_completed, 12);
    assert_eq!(snapshot.distinct_users, 1);
    let row = snapshot
        .models
        .iter()
        .find(|m| m.model == MODEL_70B)
        .unwrap();
    assert_eq!(row.requests, 12);
    assert_eq!(row.output_tokens, 12 * 150);
    assert!(row.median_latency_s > 0.0);
    // Both federated clusters are visible to the operator.
    assert_eq!(snapshot.clusters.len(), 2);
    assert!(snapshot.clusters.iter().any(|c| c.cluster == "sophia"));
    assert!(snapshot.clusters.iter().any(|c| c.cluster == "polaris"));

    let registry = gateway.export_metrics(SimTime::from_secs(3600));
    let reg_snapshot = registry.snapshot();
    assert_eq!(
        reg_snapshot.counter_value("first_gateway_requests_completed_total", &LabelSet::empty()),
        12
    );
    assert_eq!(
        reg_snapshot.counter_family_total("first_gateway_requests_received_total"),
        12
    );
    let text = render_prometheus(&reg_snapshot);
    assert!(text.contains(
        "first_request_latency_seconds_count{model=\"meta-llama/Llama-3.3-70B-Instruct\"} 12"
    ));
    assert!(text.contains("first_cluster_total_nodes{cluster=\"sophia\"} 24"));

    // The default alert pack stays quiet on this healthy run.
    let mut alerting = Gateway::default_alerting();
    assert!(alerting
        .evaluate(&registry, SimTime::from_secs(3600))
        .is_empty());
}

#[test]
fn streaming_reconstruction_is_consistent_with_end_to_end_results() {
    let (mut gateway, tokens) = DeploymentBuilder::single_cluster_test()
        .prewarm(1)
        .build_with_tokens();
    for i in 0..8u64 {
        let request = ChatCompletionRequest::simple(MODEL_70B, &format!("stream me {i}"), 512);
        gateway
            .chat_completions(
                &request,
                &tokens.alice,
                Some(100 + i as u32 * 20),
                SimTime::from_secs(i * 2),
            )
            .unwrap();
    }
    drain(&mut gateway, SimTime::from_secs(1200));

    let spec = find_model("llama-70b").unwrap();
    let perf = PerfModel::default();
    let mut stats = StreamStats::new();
    let responses = gateway.take_responses();
    assert_eq!(responses.len(), 8);
    for response in &responses {
        let stream = stream_response(response, &spec, &perf);
        // Token conservation and timeline consistency with the DES result.
        assert_eq!(stream.output_tokens(), response.usage.completion_tokens);
        assert_eq!(stream.finished_at, response.finished_at);
        assert!(stream.first_token_at > response.arrived_at);
        assert!(stream.first_token_at <= response.finished_at);
        assert!(stream.chunks.windows(2).all(|c| c[0].at <= c[1].at));
        stats.record(&stream);
    }
    assert_eq!(stats.responses(), 8);
    // Interactive experience: the first token arrives far sooner than the
    // complete answer.
    let median_ttft = stats.median_ttft();
    let median_e2e = responses
        .iter()
        .map(|r| r.latency().as_secs_f64())
        .sum::<f64>()
        / responses.len() as f64;
    assert!(
        median_ttft < median_e2e / 2.0,
        "ttft {median_ttft} vs e2e {median_e2e}"
    );
}

#[test]
fn round_robin_policy_spreads_load_where_the_paper_policy_pins_it() {
    let run = |policy: RoutingPolicy| {
        let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris()
            .prewarm(1)
            .routing_policy(policy)
            .build_with_tokens();
        for i in 0..10u64 {
            let request =
                ChatCompletionRequest::simple(MODEL_70B, &format!("policy {policy:?} q{i}"), 128);
            gateway
                .chat_completions(&request, &tokens.alice, Some(80), SimTime::from_secs(i * 3))
                .unwrap();
        }
        drain(&mut gateway, SimTime::from_secs(3600));
        let mut sophia = 0;
        let mut polaris = 0;
        for entry in gateway.log().entries() {
            match gateway.endpoint_name(entry.endpoint) {
                "sophia-endpoint" => sophia += 1,
                "polaris-endpoint" => polaris += 1,
                _ => {}
            }
        }
        (sophia, polaris)
    };

    let (paper_sophia, paper_polaris) = run(RoutingPolicy::PaperPriority);
    let (rr_sophia, rr_polaris) = run(RoutingPolicy::RoundRobin);

    // §4.5: the priority policy prefers the first active endpoint, so all
    // traffic lands on Sophia. Round-robin alternates across the federation.
    assert_eq!(paper_sophia, 10);
    assert_eq!(paper_polaris, 0);
    assert_eq!(rr_sophia, 5);
    assert_eq!(rr_polaris, 5);
}
