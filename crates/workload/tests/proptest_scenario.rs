//! Property tests for the scenario-matrix subsystem: the new non-stationary
//! arrival shapes (bursty / diurnal / MMPP) are sorted, seed-deterministic
//! and honest about their offered rate, `ScenarioSpec`s round-trip through
//! serde and compile to deterministic, horizon-bounded streams, and the
//! lazily merged stream equals the sort-based compile it replaced.

use first_chaos::FaultPlan;
use first_desim::{SimDuration, SimRng, SimTime};
use first_workload::{
    generate_trace, ArrivalProcess, DeploymentRef, DeploymentTraceConfig, ModelShare, ReplayEntry,
    ReplayTrack, ScenarioRequest, ScenarioSpec, ShareGptGenerator, ShareGptProfile, SloTarget,
    TenantClass, TenantWorkload, TraceEntryKind,
};
use proptest::prelude::*;

/// The eager arrival generator `ArrivalProcess::arrivals` used before it
/// became a lazy cursor, kept verbatim as the reference.
fn eager_arrivals(
    process: &ArrivalProcess,
    n: usize,
    start: SimTime,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    fn thinned(
        n: usize,
        start: SimTime,
        rng: &mut SimRng,
        peak_rate: f64,
        rate: impl Fn(f64) -> f64,
    ) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        while out.len() < n {
            t += rng.exponential(1.0 / peak_rate);
            if rng.uniform01() < (rate(t) / peak_rate).clamp(0.0, 1.0) {
                out.push(start + SimDuration::from_secs_f64(t));
            }
        }
        out
    }
    match *process {
        ArrivalProcess::Infinite => vec![start; n],
        ArrivalProcess::FixedRate(rps) => {
            let gap = SimDuration::from_secs_f64(1.0 / rps.max(1e-9));
            (0..n).map(|i| start + gap.mul_f64(i as f64)).collect()
        }
        ArrivalProcess::Poisson(rps) => {
            let mean_gap = 1.0 / rps.max(1e-9);
            let mut t = start;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(t);
                t += SimDuration::from_secs_f64(rng.exponential(mean_gap));
            }
            out
        }
        _ if !matches!(process, ArrivalProcess::Replay(_))
            && process.offered_rate().unwrap_or(0.0) <= 0.0 =>
        {
            Vec::new()
        }
        ArrivalProcess::Bursty {
            base_rate,
            burst_rate,
            period_s,
            burst_s,
        } => {
            let period = period_s.max(1e-6);
            let burst_len = burst_s.clamp(0.0, period);
            let peak = base_rate.max(burst_rate).max(1e-9);
            thinned(n, start, rng, peak, |t| {
                if t % period < burst_len {
                    burst_rate
                } else {
                    base_rate
                }
            })
        }
        ArrivalProcess::Diurnal {
            mean_rate,
            amplitude,
            period_s,
        } => {
            let amp = amplitude.clamp(0.0, 1.0);
            let period = period_s.max(1e-6);
            let peak = (mean_rate * (1.0 + amp)).max(1e-9);
            thinned(n, start, rng, peak, |t| {
                mean_rate * (1.0 + amp * (2.0 * std::f64::consts::PI * t / period).sin())
            })
        }
        ArrivalProcess::Mmpp {
            calm_rate,
            surge_rate,
            mean_calm_s,
            mean_surge_s,
        } => {
            let rates = [calm_rate.max(1e-9), surge_rate.max(1e-9)];
            let dwells = [mean_calm_s.max(1e-6), mean_surge_s.max(1e-6)];
            let mut out = Vec::with_capacity(n);
            let mut t = 0.0f64;
            let mut state = 0usize;
            while out.len() < n {
                let dwell = rng.exponential(dwells[state]).max(1e-6);
                let mut u = t + rng.exponential(1.0 / rates[state]);
                while u < t + dwell && out.len() < n {
                    out.push(start + SimDuration::from_secs_f64(u));
                    u += rng.exponential(1.0 / rates[state]);
                }
                t += dwell;
                state = 1 - state;
            }
            out
        }
        ArrivalProcess::Replay(ref track) => track
            .entries
            .iter()
            .take(n)
            .map(|e| start + (e.at - SimTime::ZERO))
            .collect(),
    }
}

/// The sort-based `ScenarioSpec::compile` the lazy merge replaced: every
/// tenant's requests materialised, then one sort by `(at, priority desc,
/// tenant, seq)`. One deliberate difference: a replay track applies the
/// horizon as a filter, not as a stop at the first late entry, so an
/// unsorted track keeps its in-horizon entries.
fn oracle_compile(spec: &ScenarioSpec, seed: u64) -> Vec<ScenarioRequest> {
    let horizon = SimTime::from_secs_f64(spec.horizon_s);
    let mut requests: Vec<ScenarioRequest> = Vec::new();
    for (tenant_idx, tenant) in spec.tenants.iter().enumerate() {
        let tenant_seed = seed ^ first_desim::fnv1a_64(tenant.name.as_bytes());
        let mut rng = SimRng::seed_from_u64(tenant_seed);
        let mut arrival_rng = rng.derive(1);
        let mut mix_rng = rng.derive(2);
        let weights: Vec<f64> = tenant.models.iter().map(|m| m.weight).collect();
        let mut push = |at, seq: usize, model: &str, prompt_tokens, output_tokens| {
            requests.push(ScenarioRequest {
                at,
                tenant: tenant_idx as u32,
                priority: tenant.priority,
                seq: seq as u32,
                model: model.to_string(),
                prompt_tokens,
                output_tokens,
            })
        };
        match &tenant.workload {
            TenantWorkload::Synthetic {
                arrival: ArrivalProcess::Replay(track),
                ..
            } => {
                for (seq, e) in track.entries.iter().take(tenant.requests).enumerate() {
                    if e.at <= horizon {
                        push(e.at, seq, &e.model, e.prompt_tokens, e.output_tokens);
                    }
                }
            }
            TenantWorkload::Synthetic { arrival, profile } => {
                let mut lengths =
                    ShareGptGenerator::with_profile(profile.clone(), tenant_seed ^ 0x1E46_7D5A);
                let arrivals =
                    eager_arrivals(arrival, tenant.requests, SimTime::ZERO, &mut arrival_rng);
                for (seq, at) in arrivals.into_iter().enumerate() {
                    if at > horizon {
                        break;
                    }
                    let sample = lengths.sample();
                    let model = &tenant.models[mix_rng.weighted_index(&weights)].model;
                    push(at, seq, model, sample.prompt_tokens, sample.output_tokens);
                }
            }
            TenantWorkload::TraceReplay {
                config,
                time_compression,
            } => {
                let compression = time_compression.max(1.0);
                let trace = generate_trace(config, tenant_seed);
                for (seq, e) in trace
                    .entries
                    .iter()
                    .filter(|e| e.kind == TraceEntryKind::Interactive)
                    .take(tenant.requests)
                    .enumerate()
                {
                    let at = SimTime::from_secs_f64(e.at.as_secs_f64() / compression);
                    if at > horizon {
                        break;
                    }
                    let model = &tenant.models[e.model_index % tenant.models.len().max(1)].model;
                    push(at, seq, model, e.prompt_tokens, e.output_tokens);
                }
            }
        }
    }
    requests.sort_by(|a, b| {
        a.at.cmp(&b.at)
            .then(b.priority.cmp(&a.priority))
            .then(a.tenant.cmp(&b.tenant))
            .then(a.seq.cmp(&b.seq))
    });
    requests
}

const MODELS: [&str; 3] = [
    "meta-llama/Llama-3.3-70B-Instruct",
    "meta-llama/Meta-Llama-3.1-8B-Instruct",
    "mistralai/Mistral-7B-Instruct-v0.3",
];

/// Arrival process number `pick` (of 8), with rates scaled by `rate`.
/// Shape 6 is a replay track on whole seconds (so instants collide across
/// tenants), shuffled out of time order when `unsorted`.
fn arrival_shape(pick: usize, rate: f64, seed: u64, unsorted: bool) -> ArrivalProcess {
    match pick {
        0 => ArrivalProcess::Infinite,
        1 => ArrivalProcess::FixedRate(rate.round().max(1.0)),
        2 => ArrivalProcess::Poisson(rate),
        3 => ArrivalProcess::Bursty {
            base_rate: rate,
            burst_rate: rate * 5.0,
            period_s: 60.0,
            burst_s: 10.0,
        },
        4 => ArrivalProcess::Diurnal {
            mean_rate: rate,
            amplitude: 0.6,
            period_s: 120.0,
        },
        5 => ArrivalProcess::Mmpp {
            calm_rate: rate,
            surge_rate: rate * 4.0,
            mean_calm_s: 30.0,
            mean_surge_s: 10.0,
        },
        _ => {
            let mut rng = SimRng::seed_from_u64(seed);
            let len = 5 + (seed % 40) as usize;
            let mut at = 0u64;
            let mut entries: Vec<ReplayEntry> = (0..len)
                .map(|i| {
                    at += (rng.uniform01() * 3.0) as u64;
                    ReplayEntry {
                        at: SimTime::from_secs(at),
                        model: MODELS[i % MODELS.len()].to_string(),
                        prompt_tokens: 10 + i as u32,
                        output_tokens: 20 + i as u32,
                    }
                })
                .collect();
            if unsorted {
                for i in (1..entries.len()).rev() {
                    let j = (rng.uniform01() * (i + 1) as f64) as usize;
                    entries.swap(i, j.min(i));
                }
            }
            ArrivalProcess::Replay(ReplayTrack { entries })
        }
    }
}

/// Check the three shared properties of one arrival shape: sorted output,
/// byte-identical regeneration under the same seed, and an empirical rate
/// within `tolerance` of `offered_rate()`. The rate is measured over a
/// window of `cycles` whole cycles of length `cycle_s` — counting a fixed
/// time window avoids the end-bias of a fixed arrival count, which would
/// preferentially stop inside a high-rate phase.
fn check_shape(
    process: ArrivalProcess,
    cycle_s: f64,
    cycles: f64,
    seed: u64,
    tolerance: f64,
) -> Result<(), String> {
    let offered = process.offered_rate().expect("finite shapes have a rate");
    let window_s = cycle_s * cycles;
    // Enough arrivals to overshoot the window with near-certainty.
    let n = ((offered * window_s * 1.5) as usize).max(200) + 200;
    let arr = process.arrivals(n, SimTime::ZERO, &mut SimRng::seed_from_u64(seed));
    if arr.len() != n {
        return Err(format!(
            "{} produced {} of {n} arrivals",
            process.label(),
            arr.len()
        ));
    }
    if !arr.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!("{} arrivals not sorted", process.label()));
    }
    let again = process.arrivals(n, SimTime::ZERO, &mut SimRng::seed_from_u64(seed));
    if arr != again {
        return Err(format!("{} not seed-deterministic", process.label()));
    }
    if arr.last().unwrap().as_secs_f64() < window_s {
        return Err(format!(
            "{} stream too short for the window",
            process.label()
        ));
    }
    let in_window = arr.iter().filter(|t| t.as_secs_f64() <= window_s).count();
    let rate = in_window as f64 / window_s;
    if (rate - offered).abs() / offered > tolerance {
        return Err(format!(
            "{}: empirical rate {rate:.3} vs offered {offered:.3} (tolerance {tolerance})",
            process.label()
        ));
    }
    Ok(())
}

proptest! {
    /// Bursty arrivals: sorted, deterministic, and the time-average rate
    /// matches the duty-cycle-weighted offered rate.
    #[test]
    fn bursty_arrivals_hold_their_contract(
        seed in 0u64..u64::MAX,
        base in 0.5f64..4.0,
        burst_mult in 3.0f64..10.0,
        period in 30.0f64..120.0,
        burst_frac in 0.1f64..0.5,
    ) {
        let process = ArrivalProcess::Bursty {
            base_rate: base,
            burst_rate: base * burst_mult,
            period_s: period,
            burst_s: period * burst_frac,
        };
        if let Err(e) = check_shape(process, period, 20.0, seed, 0.15) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Diurnal arrivals: sorted, deterministic, time-average rate = mean.
    #[test]
    fn diurnal_arrivals_hold_their_contract(
        seed in 0u64..u64::MAX,
        mean in 2.0f64..12.0,
        amplitude in 0.0f64..1.0,
        period in 60.0f64..300.0,
    ) {
        let process = ArrivalProcess::Diurnal {
            mean_rate: mean,
            amplitude,
            period_s: period,
        };
        if let Err(e) = check_shape(process, period, 20.0, seed, 0.15) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// MMPP arrivals: sorted, deterministic, time-average rate = the
    /// dwell-weighted mix of the two state rates.
    #[test]
    fn mmpp_arrivals_hold_their_contract(
        seed in 0u64..u64::MAX,
        calm in 0.5f64..3.0,
        surge in 5.0f64..15.0,
        calm_dwell in 5.0f64..30.0,
        surge_dwell in 5.0f64..30.0,
    ) {
        let process = ArrivalProcess::Mmpp {
            calm_rate: calm,
            surge_rate: surge,
            mean_calm_s: calm_dwell,
            mean_surge_s: surge_dwell,
        };
        // Dwell-cycle randomness converges slower than thinning: wider band.
        if let Err(e) = check_shape(process, calm_dwell + surge_dwell, 40.0, seed, 0.30) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Randomised specs round-trip through serde byte-for-byte and compile
    /// to deterministic, time-sorted, horizon-bounded streams.
    #[test]
    fn specs_round_trip_and_compile_deterministically(
        seed in 0u64..u64::MAX,
        requests_a in 5usize..60,
        requests_b in 5usize..60,
        rate in 0.5f64..8.0,
        priority in 0u8..255,
        horizon_s in 50.0f64..500.0,
        with_faults in 0usize..2,
        shape_pick in 0usize..4,
    ) {
        let with_faults = with_faults == 1;
        let arrival = match shape_pick {
            0 => ArrivalProcess::Poisson(rate),
            1 => ArrivalProcess::Bursty {
                base_rate: rate,
                burst_rate: rate * 5.0,
                period_s: 60.0,
                burst_s: 10.0,
            },
            2 => ArrivalProcess::Diurnal {
                mean_rate: rate,
                amplitude: 0.6,
                period_s: 120.0,
            },
            _ => ArrivalProcess::Mmpp {
                calm_rate: rate,
                surge_rate: rate * 4.0,
                mean_calm_s: 30.0,
                mean_surge_s: 10.0,
            },
        };
        let mut spec = ScenarioSpec::new(
            "prop-spec",
            "randomised property-test spec",
            DeploymentRef::Sophia,
            vec![
                TenantClass::synthetic(
                    "alpha",
                    requests_a,
                    arrival,
                    "meta-llama/Llama-3.3-70B-Instruct",
                )
                .with_priority(priority)
                .with_slo(SloTarget::interactive()),
                TenantClass::synthetic(
                    "beta",
                    requests_b,
                    ArrivalProcess::Infinite,
                    "meta-llama/Meta-Llama-3.1-8B-Instruct",
                )
                .with_slo(SloTarget::batch()),
            ],
        );
        spec.horizon_s = horizon_s;
        if with_faults {
            spec.faults = FaultPlan::seeded(
                seed,
                SimTime::ZERO,
                SimTime::from_secs_f64(horizon_s),
                &["sophia-endpoint".to_string()],
                4,
            );
        }

        // Serde round trip is exact.
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec parses");
        prop_assert_eq!(&spec, &back);

        // Compilation: deterministic, sorted, horizon-bounded, conserving.
        let a = spec.compile(seed);
        let b = spec.compile(seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.requests.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert!(a.requests.iter().all(|r| r.at <= a.horizon));
        prop_assert!(a.requests.len() <= requests_a + requests_b);
        // The infinite tenant arrives wholly at t=0, inside any horizon.
        prop_assert_eq!(
            a.requests.iter().filter(|r| r.tenant == 1).count(),
            requests_b
        );
    }

    /// The lazy arrival cursor behind `ArrivalProcess::arrivals` yields the
    /// eager generator's times and leaves the caller's RNG in the same
    /// state, for every shape.
    #[test]
    fn lazy_arrivals_match_the_eager_generator(
        seed in 0u64..u64::MAX,
        n in 0usize..300,
        pick in 0usize..7,
        rate in 0.5f64..20.0,
        start_s in 0u64..100,
        unsorted in 0usize..2,
    ) {
        let process = arrival_shape(pick, rate, seed, unsorted == 1);
        let start = SimTime::from_secs(start_s);
        let mut lazy_rng = SimRng::seed_from_u64(seed);
        let mut eager_rng = SimRng::seed_from_u64(seed);
        let lazy = process.arrivals(n, start, &mut lazy_rng);
        let eager = eager_arrivals(&process, n, start, &mut eager_rng);
        prop_assert_eq!(lazy, eager);
        prop_assert_eq!(lazy_rng.uniform01().to_bits(), eager_rng.uniform01().to_bits());
    }

    /// The lazily merged stream equals the sort-based compile over random
    /// multi-tenant specs: every arrival process, trace replay, equal
    /// instants across tenants of different priority, horizon cuts and
    /// replay tracks out of time order.
    #[test]
    fn merged_stream_matches_the_sort_based_compile(
        seed in 0u64..u64::MAX,
        tenants in 1usize..6,
        picks in proptest::collection::vec(0usize..8, 6..7),
        requests in proptest::collection::vec(0usize..50, 6..7),
        priorities in proptest::collection::vec(0u8..3, 6..7),
        rate in 0.5f64..8.0,
        horizon_s in 5.0f64..200.0,
        unsorted in 0usize..2,
    ) {
        let tenants: Vec<TenantClass> = (0..tenants)
            .map(|i| {
                let name = format!("tenant-{i}");
                let shape = arrival_shape(picks[i], rate, seed ^ i as u64, unsorted == 1);
                let mix: Vec<ModelShare> = MODELS
                    .iter()
                    .enumerate()
                    .map(|(m, model)| ModelShare {
                        model: model.to_string(),
                        weight: 1.0 + m as f64,
                    })
                    .collect();
                let class = if picks[i] == 7 {
                    TenantClass {
                        workload: TenantWorkload::TraceReplay {
                            config: DeploymentTraceConfig {
                                interactive_requests: 60,
                                batch_requests: 20,
                                batch_jobs: 2,
                                window: SimDuration::from_secs(600),
                                scale_down: 1,
                                ..DeploymentTraceConfig::default()
                            },
                            time_compression: 2.0,
                        },
                        ..TenantClass::synthetic(&name, requests[i], shape, MODELS[0])
                    }
                } else {
                    TenantClass::synthetic(&name, requests[i], shape, MODELS[0])
                        .with_profile(ShareGptProfile::default())
                };
                // Priorities collide and differ across tenants.
                class.with_models(mix).with_priority(100 * priorities[i])
            })
            .collect();
        let mut spec = ScenarioSpec::new(
            "prop-merge",
            "randomised merge-order spec",
            DeploymentRef::Sophia,
            tenants,
        );
        spec.horizon_s = horizon_s;

        let oracle = oracle_compile(&spec, seed);
        let streamed: Vec<ScenarioRequest> =
            spec.arrivals(seed).map(ScenarioRequest::from).collect();
        prop_assert_eq!(&streamed, &oracle);
        prop_assert_eq!(&spec.compile(seed).requests, &oracle);
    }
}
