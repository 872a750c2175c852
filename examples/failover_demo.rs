//! Failover demo: kill the primary cluster mid-stream and watch the
//! federation keep serving.
//!
//! A federated Sophia+Polaris deployment runs with the production resilience
//! profile (failover-aware routing, retries, hedging, circuit breaker). A
//! steady stream of chat completions flows in; thirty seconds in, a fault
//! plan takes the whole Sophia cluster down. In-flight requests fail, are
//! retried on Polaris and complete; the circuit breaker opens so fresh
//! traffic routes straight to the secondary; the dashboard and the
//! sustained-unavailability alert reflect the outage.
//!
//! Run with: `cargo run --release --example failover_demo`

use first::chaos::{FaultInjector, FaultPlan, ResilienceConfig};
use first::core::{ChatCompletionRequest, DeploymentBuilder};
use first::desim::{SimDuration, SimProcess, SimTime};

const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

fn main() {
    let (mut gateway, tokens) = DeploymentBuilder::federated_sophia_polaris()
        .prewarm(1)
        .resilience(ResilienceConfig::production())
        .build_with_tokens();

    // The fault plan: Sophia — the primary site, first in configuration
    // order — goes down completely at t=30 s for two minutes.
    let outage_at = SimTime::from_secs(30);
    let plan = FaultPlan::cluster_outage("sophia-endpoint", outage_at, SimDuration::from_secs(120));
    let mut injector = FaultInjector::new(plan);

    // A request every two seconds for a minute, so several are mid-flight on
    // Sophia when the cluster dies.
    let n = 30u64;
    for i in 0..n {
        let request =
            ChatCompletionRequest::simple(MODEL, &format!("failover demo question {i}"), 256);
        gateway
            .chat_completions(
                &request,
                &tokens.alice,
                Some(160),
                SimTime::from_secs(i * 2),
            )
            .expect("request accepted");
    }

    // Drive the deployment, merging gateway and fault-plan events, and
    // evaluate the alert pack as an operator's monitoring stack would.
    let mut alerting = gateway.alerting();
    let mut fired = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_scrape = SimTime::ZERO;
    while let Some(step) = injector.next_event_merged(&gateway) {
        now = now.max(step);
        for applied in injector.apply_due(gateway.service_mut(), now) {
            println!(
                "t={:>5.1}s  !! fault injected: {} on {}",
                applied.at.as_secs_f64(),
                applied.fault,
                applied.endpoint.as_deref().unwrap_or("-")
            );
        }
        gateway.advance(now);
        // Scrape metrics and evaluate alerts every ~10 simulated seconds.
        if now >= next_scrape {
            let registry = gateway.export_metrics(now);
            fired.extend(alerting.evaluate(&registry, now));
            next_scrape = now + SimDuration::from_secs(10);
        }
        if gateway.is_drained() {
            break;
        }
    }
    // The monitoring stack keeps scraping after traffic stops; the
    // sustained-unavailability rule fires once the breaker has been open for
    // its hold window.
    for _ in 0..4 {
        now += SimDuration::from_secs(10);
        gateway.advance(now);
        let registry = gateway.export_metrics(now);
        fired.extend(alerting.evaluate(&registry, now));
    }

    // Who served what, before and after the outage?
    let mut before = (0u32, 0u32);
    let mut after = (0u32, 0u32);
    for entry in gateway.log().entries().iter().filter(|e| e.success) {
        let bucket = if entry.arrived_at < outage_at {
            &mut before
        } else {
            &mut after
        };
        match gateway.endpoint_name(entry.endpoint) {
            "sophia-endpoint" => bucket.0 += 1,
            "polaris-endpoint" => bucket.1 += 1,
            _ => {}
        }
    }
    let responses = gateway.take_responses();
    let completed = responses.iter().filter(|r| r.success).count();
    println!("\n== outcome ==");
    println!(
        "offered {n}, completed {completed}, lost {}",
        n as usize - completed
    );
    println!("before outage:  sophia={} polaris={}", before.0, before.1);
    println!("during/after:   sophia={} polaris={}", after.0, after.1);

    // The dashboard shows the breaker trip and the failovers.
    let snapshot = gateway.dashboard_snapshot(now);
    println!("\n{}", snapshot.render_text());

    println!("== alerts fired ==");
    if fired.is_empty() {
        println!("(none)");
    } else {
        for alert in &fired {
            println!(
                "t={:>5.1}s  {:?}: {} (value {:.0})",
                alert.fired_at.as_secs_f64(),
                alert.severity,
                alert.rule,
                alert.value
            );
        }
    }

    assert_eq!(completed, n as usize, "failover must not lose requests");
    assert!(
        snapshot.breaker_trips >= 1,
        "the outage should trip the circuit breaker"
    );
}
