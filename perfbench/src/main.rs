//! `perfbench`: the repository benchmark.
//!
//! Runs seeded workloads through the program's single entry point,
//! `ScenarioRun::execute`, checks the outputs, and prints every metric with
//! its unit in a table per workload, then one JSON object as the last line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh process. With
//! `--trace 0` the result carries the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it carries the per-layer metrics of the
//! traced run (see `LAYERS.md`). Any failed correctness check exits
//! non-zero, names the check and prints no result.

mod checks;
mod inputs;
mod replay;

use checks::Failure;
use first_core::{GatewayReport, ScenarioRun, ShardedGateway};
use first_desim::{SimMeter, SimTime};
use first_telemetry::TraceConfig;
use inputs::Workload;
use replay::{Layer, Replay};
use std::hint::black_box;
use std::time::Instant;

const USAGE: &str = "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";

/// Spans kept individually by the traced replay (32 bytes each); beyond
/// this they are aggregated only.
const SPAN_CAPACITY: usize = 250_000;

/// Measured runs per workload, at the least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("bad value for --seconds: {}", args.seconds));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// What the value rests on, for the table.
    basis: String,
    /// False for a per-layer metric of a layer the workload never reaches:
    /// its span layer has no calls, its count is 0 or its phase is absent.
    reached: bool,
}

fn metric(name: &str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        basis: basis.into(),
        reached: true,
    }
}

/// A per-layer count: 0 means the workload never reaches what it counts.
fn count(name: &str, value: u64, basis: impl Into<String>) -> Metric {
    Metric {
        reached: value > 0,
        ..metric(name, value as f64, "count", basis)
    }
}

/// The result of one workload run.
struct Outcome {
    attempted: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        )
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &args.workload {
        None => run_all(&raw),
        Some(name) => match run_one(name, &args) {
            Ok(outcome) => {
                println!("{}", outcome.json());
                0
            }
            Err(failure) => {
                eprintln!("{failure}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// Run every workload, each in a fresh process (peak RSS is per process),
/// then print one JSON object holding each workload's metrics.
fn run_all(raw: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return 1;
        }
    };
    let mut attempted = 0usize;
    let mut parts = Vec::new();
    for name in inputs::WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(raw)
            .args(["--workload", name])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !output.status.success() {
            eprintln!("{name}: failed ({})", output.status);
            return 1;
        }
        // The child's last line is `{"correct": true, "attempted": N,
        // "failed": 0, "metrics": {...}}`; keep its counts and metric map.
        let count = last
            .split("\"attempted\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse::<usize>().ok());
        let metrics = last
            .split_once("\"metrics\": ")
            .and_then(|(_, rest)| rest.strip_suffix('}'));
        let (Some(count), Some(metrics)) = (count, metrics) else {
            eprintln!("{name}: unreadable result line: {last}");
            return 1;
        };
        attempted += count;
        parts.push(format!("\"{name}\": {metrics}"));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        parts.join(", ")
    );
    0
}

fn run_one(name: &str, args: &Args) -> Result<Outcome, Failure> {
    let unknown = || Failure {
        check: "workload",
        detail: format!(
            "unknown workload '{name}' (known: {})",
            inputs::WORKLOADS.join(", ")
        ),
    };
    let requests = inputs::default_requests(name).ok_or_else(unknown)?;
    let w = inputs::generate(name, args.seed, requests).ok_or_else(unknown)?;
    run_workload(&w, args)
}

/// Run generated workload `w`: print its table and return its result.
fn run_workload(w: &Workload, args: &Args) -> Result<Outcome, Failure> {
    println!(
        "== {} (seed {}): {} requests from {} tenant(s), {} shard(s); open-loop replay: arrival \
         instants are fixed in simulated time, so a host stall never delays an arrival and there \
         is no generator lateness to report; one process, one thread",
        w.name,
        args.seed,
        w.requests(),
        w.spec.tenants.len(),
        w.sharding.shards,
    );
    let outcome = if args.trace {
        traced(w, args)?
    } else {
        untraced(w, args)?
    };
    print_table(&outcome.metrics);
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(Failure {
            check: "finite-metrics",
            detail: format!("{} is {}", bad.name, bad.value),
        });
    }
    Ok(outcome)
}

fn print_table(metrics: &[Metric]) {
    println!("{:<34} {:>16} {:<6} basis", "metric", "value", "unit");
    for m in metrics {
        let basis = if m.reached {
            m.basis.clone()
        } else {
            format!("not reached by this workload ({})", m.basis)
        };
        println!(
            "{:<34} {:>16} {:<6} {basis}",
            m.name,
            format_value(m.value),
            m.unit,
        );
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One `ScenarioRun::execute` of the workload: the report and its wall time.
fn execute(w: &Workload, seed: u64, trace: TraceConfig) -> Result<(GatewayReport, f64), Failure> {
    let started = Instant::now();
    let out = ScenarioRun::new(&w.spec)
        .seed(seed)
        .sharding(w.sharding.clone())
        .traced(trace)
        .execute()
        .map_err(|e| Failure {
            check: "execute",
            detail: e.to_string(),
        })?;
    Ok((out.report, started.elapsed().as_secs_f64()))
}

/// Time the program's set-up from outside: `ScenarioSpec::compile`, then
/// the deployment build (`DeploymentBuilder` via
/// `ShardedGateway::from_builder`). Repeats for about `budget_s`.
fn setups(w: &Workload, seed: u64, budget_s: f64) -> (Vec<f64>, Vec<f64>) {
    let (mut compile, mut build) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while compile.len() < 5 || (started.elapsed().as_secs_f64() < budget_s && compile.len() < 2000)
    {
        let t0 = Instant::now();
        let compiled = black_box(w.spec.compile(seed));
        let t1 = Instant::now();
        let fleet = black_box(ShardedGateway::from_builder(
            &replay::deployment(&w.spec),
            w.sharding.clone(),
        ));
        let t2 = Instant::now();
        drop((compiled, fleet));
        compile.push((t1 - t0).as_secs_f64());
        build.push((t2 - t1).as_secs_f64());
    }
    (compile, build)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, Failure> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure {
            check: "peak-rss",
            detail: "VmHWM missing from /proc/self/status".to_string(),
        })
}

/// The end-to-end metrics, measured with tracing off.
fn untraced(w: &Workload, args: &Args) -> Result<Outcome, Failure> {
    let offered = w.requests();
    // The first run warms caches and is the reference every later run of
    // the same seed must reproduce. Peak RSS is read right after it: later
    // runs reuse freed memory unevenly, so a peak over all of them would
    // depend on how many fit into the time.
    let (reference, _) = execute(w, args.seed, TraceConfig::default())?;
    checks::workload(w.name, offered, &reference)?;
    let digest = checks::digest(&reference);
    let rss = peak_rss_mb()?;

    let (compile, build) = setups(w, args.seed, (0.1 * args.seconds).max(0.2));
    let setup: Vec<f64> = compile.iter().zip(&build).map(|(c, b)| c + b).collect();
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < MIN_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        let (report, wall) = execute(w, args.seed, TraceConfig::default())?;
        checks::deterministic(digest, &report)?;
        rates.push(report.completed as f64 / wall);
    }

    let r = &reference;
    let worst = r
        .tenants
        .iter()
        .max_by(|a, b| a.p95_latency_s.total_cmp(&b.p95_latency_s))
        .ok_or_else(|| Failure {
            check: "tenants",
            detail: "the report has no tenant".to_string(),
        })?;
    let within: f64 = r
        .tenants
        .iter()
        .map(|t| (t.slo_latency_attainment * t.completed as f64).round())
        .sum();
    let out_tokens: u64 = r.tenants.iter().map(|t| t.output_tokens).sum();
    let samples = format!("tenant {}, {} samples", worst.tenant, worst.completed);
    let metrics = vec![
        metric(
            "req_per_wall_s",
            median(&rates),
            "1/s",
            format!("median of {} runs of {} requests", rates.len(), r.completed),
        ),
        metric(
            "setup_s",
            median(&setup),
            "s",
            format!(
                "median of {} set-ups (compile + deployment build)",
                setup.len()
            ),
        ),
        metric(
            "peak_rss_mb",
            rss,
            "MiB",
            "VmHWM of this process after its first run",
        ),
        metric(
            "sim_out_tok_per_s",
            r.output_token_throughput,
            "tok/s",
            format!("{out_tokens} tokens over {:.1} simulated s", r.duration_s),
        ),
        metric(
            "sim_latency_p50_s",
            worst.median_latency_s,
            "s",
            samples.clone(),
        ),
        metric(
            "sim_latency_p95_s",
            worst.p95_latency_s,
            "s",
            format!("{samples}, {} beyond p95", worst.completed / 20),
        ),
        metric(
            "sim_within_slo_frac",
            within / r.offered as f64,
            "frac",
            format!(
                "{within} of {} offered within each tenant's target",
                r.offered
            ),
        ),
        metric(
            "sim_completed_frac",
            r.completed as f64 / r.offered as f64,
            "frac",
            format!("{} of {} offered", r.completed, r.offered),
        ),
    ];
    // error_rate is 0 on backlog-flood by construction, and an end-to-end
    // metric must never be 0 (its bound is a share of its median), so it is
    // shown here and carried in the result as its complement,
    // sim_completed_frac.
    println!(
        "error_rate = {} ((failed {} + rejected {}) / offered {})",
        (r.failed + r.rejected) as f64 / r.offered as f64,
        r.failed,
        r.rejected,
        r.offered
    );
    Ok(Outcome {
        attempted: rates.len(),
        metrics,
    })
}

/// The per-layer metrics of the traced run.
fn traced(w: &Workload, args: &Args) -> Result<Outcome, Failure> {
    let offered = w.requests();
    let (compile, build) = setups(w, args.seed, (0.1 * args.seconds).max(0.2));

    // Kernel counters over one untraced run of the program.
    let meter = SimMeter::start();
    let (reference, _) = execute(w, args.seed, TraceConfig::default())?;
    let kernel = meter.finish(SimTime::from_secs_f64(reference.duration_s));
    checks::workload(w.name, offered, &reference)?;
    let digest = checks::digest(&reference);

    // Rounds of untraced run, traced run (every request sampled) and the
    // benchmark's own span-traced replay, until the time is used up.
    let every_request = TraceConfig::every_request(offered);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut replays: Vec<Replay> = Vec::new();
    let mut traced_report = None;
    let started = Instant::now();
    while replays.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (report, wall) = execute(w, args.seed, TraceConfig::default())?;
        checks::deterministic(digest, &report)?;
        untraced_walls.push(wall);
        let (traced, wall) = execute(w, args.seed, every_request)?;
        checks::traced_matches(&reference, &traced)?;
        traced_walls.push(wall);
        traced_report.get_or_insert(traced);
        let rep = replay::replay(w, args.seed, SPAN_CAPACITY);
        checks::replay_conservation(&rep.tally)?;
        if w.sharding.shards == 1 {
            checks::replay_matches(&reference, &rep.tally)?;
        }
        if let Some(first) = replays.first() {
            if first.tally != rep.tally || first.counts != rep.counts {
                return Err(Failure {
                    check: "replay-determinism",
                    detail: "two replays of one seed counted differently".to_string(),
                });
            }
        }
        // Only the latest replay keeps its individual spans.
        if let Some(last) = replays.last_mut() {
            last.spans.release_spans();
        }
        replays.push(rep);
    }
    let traced_report = traced_report.expect("at least one round ran");
    let rep = replays.last().expect("at least one round ran");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", w.name));
    rep.spans.write_tsv(&path).map_err(|e| Failure {
        check: "span-file",
        detail: format!("{}: {e}", path.display()),
    })?;

    let rounds = replays.len();
    let med = |f: &dyn Fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let basis_wall = format!("median of {rounds} replays");
    let acc = "stats accessors after the replay";
    let rpt = "the program's report";
    let kernel_basis = "SimMeter over one untraced run";
    let c = &rep.counts;

    let mut metrics = vec![
        metric(
            "setup.compile_s",
            median(&compile),
            "s",
            format!("median of {} set-ups", compile.len()),
        ),
        metric(
            "setup.build_s",
            median(&build),
            "s",
            format!("median of {} set-ups", build.len()),
        ),
        count("desim.events", kernel.events_processed, kernel_basis),
        count(
            "desim.peak_queue_depth",
            kernel.peak_queue_depth as u64,
            kernel_basis,
        ),
        metric(
            "desim.events_per_wall_s",
            kernel.events_per_sec(),
            "1/s",
            kernel_basis,
        ),
    ];
    for layer in Layer::ALL {
        let name = layer.name();
        let calls = rep.calls(layer);
        metrics.push(count(&format!("{name}.calls"), calls, "replay spans"));
        let wall = med(&|r: &Replay| r.spans_wall(layer));
        metrics.push(Metric {
            reached: calls > 0,
            ..metric(&format!("{name}.wall_s"), wall, "s", basis_wall.as_str())
        });
    }
    // The service.next_event probe is work the benchmark adds; shares of the
    // driver's wall time leave it out.
    for layer in [
        Layer::GatewayNextEvent,
        Layer::GatewayAdvance,
        Layer::GatewayAdmit,
    ] {
        let share = med(&|r: &Replay| {
            r.spans_wall(layer) / (r.wall_s - r.spans_wall(Layer::ServiceNextEvent)).max(1e-12)
        });
        metrics.push(metric(
            &format!("{}.share", layer.name()),
            share,
            "frac",
            "of driver wall",
        ));
    }
    metrics.extend(c.rows().map(|(name, value)| count(name, value, acc)));
    metrics.extend([
        metric(
            "gateway.advance.idle_frac",
            c.gateway_idle_advances as f64 / c.gateway_advances.max(1) as f64,
            "frac",
            format!(
                "{} of {} advances had nothing of the gateway's own due",
                c.gateway_idle_advances, c.gateway_advances
            ),
        ),
        metric(
            "gateway.useful_dispatch_frac",
            rep.tally.completed as f64 / c.service_submitted.max(1) as f64,
            "frac",
            format!(
                "{} completed / {} fabric submissions",
                rep.tally.completed, c.service_submitted
            ),
        ),
        metric(
            "scheduler.mean_queue_wait_s",
            c.scheduler_queue_wait_s / c.scheduler_jobs_started.max(1) as f64,
            "s",
            acc,
        ),
    ]);

    // Sim-time phases of the program's own span trees (worker-slot wait,
    // fabric dispatch, endpoint backlog, engine prefill and decode).
    let phases = traced_report.phases.as_ref();
    let phase_basis = format!(
        "span trees of {} sampled requests",
        phases.map_or(0, |p| p.sampled)
    );
    for phase in [
        "queue_wait",
        "dispatch",
        "backlog_wait",
        "prefill",
        "decode",
    ] {
        // The program omits a phase no sampled request passed through.
        let stats = phases.and_then(|p| p.by_phase.iter().find(|s| s.phase.name() == phase));
        let (p50, p95) = stats.map_or((0.0, 0.0), |s| (s.p50_s, s.p95_s));
        for (suffix, value) in [("p50_s", p50), ("p95_s", p95)] {
            metrics.push(Metric {
                reached: stats.is_some(),
                ..metric(
                    &format!("sim.{phase}.{suffix}"),
                    value,
                    "s",
                    phase_basis.as_str(),
                )
            });
        }
    }

    // Front-tier counts the program keeps to itself, from its report.
    let failover = reference.failover.clone().unwrap_or_default();
    let (imbalance, spilled) = reference.shards.as_ref().map_or((1.0, 0), |s| {
        let done: Vec<f64> = s.shards.iter().map(|x| x.completed as f64).collect();
        let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
        let max = done.iter().copied().fold(0.0, f64::max);
        (
            if mean > 0.0 { max / mean } else { 1.0 },
            s.spilled_requests,
        )
    });
    metrics.extend([
        metric(
            "front.shard_imbalance",
            imbalance,
            "ratio",
            "max / mean completed per shard, from the program's report",
        ),
        count("front.rehomed", failover.rehomed_requests as u64, rpt),
        count(
            "front.retries_dispatched",
            failover.retries_dispatched as u64,
            rpt,
        ),
        count("front.lost_in_flight", failover.lost_in_flight as u64, rpt),
        count("front.spilled", spilled as u64, rpt),
        metric(
            "trace.replay_wall_s",
            med(&|r: &Replay| r.wall_s),
            "s",
            basis_wall.as_str(),
        ),
        metric(
            "trace.overhead_frac",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
            "frac",
            format!("traced vs untraced ScenarioRun, medians of {rounds} runs each"),
        ),
        metric(
            "trace.attributed_frac",
            med(&Replay::attributed_frac),
            "frac",
            "top-level spans / replay driver wall less timer cost between spans",
        ),
        metric(
            "trace.span_cost_s",
            med(&|r: &Replay| r.span_cost.0 + r.span_cost.1),
            "s",
            "timer cost of one empty span, inside plus outside its interval",
        ),
    ]);

    println!(
        "replay: offered {} completed {} failed {} rejected {} (redispatched {}), {} output tokens; \
         program: offered {} completed {} failed {} rejected {}, {} output tokens",
        rep.tally.offered,
        rep.tally.completed,
        rep.tally.failed,
        rep.tally.rejected,
        rep.tally.redispatched,
        rep.tally.output_tokens,
        reference.offered,
        reference.completed,
        reference.failed,
        reference.rejected,
        reference.tenants.iter().map(|t| t.output_tokens).sum::<u64>(),
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>8}   (latest replay; spans in {})",
        "layer",
        "calls",
        "wall_s",
        "self_s",
        "share",
        path.display()
    );
    let driver = rep.wall_s - rep.spans_wall(Layer::ServiceNextEvent);
    for layer in Layer::ALL {
        let t = rep.spans.totals(layer);
        println!(
            "{:<22} {:>10} {:>10.4} {:>10.4} {:>7.1}%",
            layer.name(),
            t.calls,
            t.wall_s,
            t.self_s,
            100.0 * t.wall_s / driver.max(1e-12)
        );
    }
    println!(
        "driver wall {:.4}s, of which gateway.next_event {:.1}%, gateway.advance {:.1}%, \
         gateway.admit {:.1}% (service.next_event probe excluded)",
        driver,
        100.0 * rep.spans_wall(Layer::GatewayNextEvent) / driver.max(1e-12),
        100.0 * rep.spans_wall(Layer::GatewayAdvance) / driver.max(1e-12),
        100.0 * rep.spans_wall(Layer::GatewayAdmit) / driver.max(1e-12),
    );
    Ok(Outcome {
        attempted: rounds,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-layer metrics each workload must read above 0: the layers
    /// `LAYERS.md` says it loads.
    fn loads(name: &str) -> &'static [&'static str] {
        match name {
            "backlog-flood" => &[
                "service.peak_queue_depth",
                "sim.dispatch.p95_s",
                "scheduler.jobs_started",
            ],
            "federated-chaos" => &[
                "chaos.apply.calls",
                "chaos.apply.wall_s",
                "chaos.faults_applied",
                "gateway.hedges",
                "scheduler.jobs_submitted",
                "endpoint.instances_launched",
                "sim.backlog_wait.p95_s",
            ],
            "sharded-outage" => &[
                "front.route.calls",
                "front.failover.calls",
                "front.failover.wall_s",
                "front.rehomed",
                "front.spilled",
                "front.shard_imbalance",
            ],
            _ => &[],
        }
    }

    /// Per-layer metrics every workload must read above 0.
    const LOADED_BY_ALL: [&str; 16] = [
        "setup.compile_s",
        "setup.build_s",
        "desim.events",
        "desim.events_per_wall_s",
        "gateway.admit.calls",
        "gateway.admit.wall_s",
        "gateway.advance.calls",
        "gateway.next_event.calls",
        "gateway.collect.calls",
        "front.advance_all.calls",
        "service.submitted",
        "endpoint.tasks_received",
        "endpoint.output_tokens",
        "sim.prefill.p50_s",
        "sim.decode.p50_s",
        "trace.attributed_frac",
    ];

    /// The metric names `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json = serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    fn names(outcome: &Outcome) -> Vec<String> {
        outcome.metrics.iter().map(|m| m.name.clone()).collect()
    }

    /// Every workload at a tiny size passes every correctness check, traced
    /// and untraced, and reports exactly the metrics `BENCHMARK.json`
    /// declares. End-to-end metrics are never 0; a per-layer metric reads 0
    /// only for a layer the workload does not reach, and never for one of
    /// the layers it loads.
    #[test]
    fn tiny_workloads_pass_every_check() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for name in inputs::WORKLOADS {
            let w = inputs::generate(name, 5, 240).unwrap();
            let args = Args {
                workload: Some(name.to_string()),
                seed: 5,
                seconds: 0.0,
                trace: false,
            };
            let plain = run_workload(&w, &args).unwrap_or_else(|f| panic!("{name}: {f}"));
            assert_eq!(names(&plain), end_to_end, "{name}");
            assert!(
                plain.metrics.iter().all(|m| m.value > 0.0),
                "{name}: a zero end-to-end metric"
            );
            let traced = run_workload(
                &w,
                &Args {
                    trace: true,
                    ..args
                },
            )
            .unwrap_or_else(|f| panic!("{name} traced: {f}"));
            assert_eq!(names(&traced), per_layer, "{name}");
            for m in &traced.metrics {
                assert!(m.reached || m.value == 0.0, "{name}: {}", m.name);
            }
            for wanted in LOADED_BY_ALL.iter().chain(loads(name)) {
                let m = traced.metrics.iter().find(|m| m.name == *wanted).unwrap();
                assert!(m.reached && m.value > 0.0, "{name}: {wanted} reads 0");
            }
            let attributed = traced
                .metrics
                .iter()
                .find(|m| m.name == "trace.attributed_frac")
                .expect("attributed share reported");
            assert!(attributed.value <= 1.0, "{name}");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let raw: Vec<String> = [
            "--workload",
            "backlog-flood",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&raw).unwrap();
        assert_eq!(args.workload.as_deref(), Some("backlog-flood"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }

    #[test]
    fn conservation_and_determinism_checks_fire() {
        let w = inputs::generate("backlog-flood", 1, 16).unwrap();
        let (report, _) = execute(&w, 1, TraceConfig::default()).unwrap();
        checks::workload(w.name, w.requests(), &report).unwrap();
        let mut broken = report.clone();
        broken.completed -= 1;
        assert_eq!(
            checks::conservation(&broken).unwrap_err().check,
            "conservation"
        );
        assert_eq!(
            checks::workload(w.name, w.requests(), &broken)
                .unwrap_err()
                .check,
            "conservation"
        );
        assert_eq!(
            checks::deterministic(checks::digest(&report), &broken)
                .unwrap_err()
                .check,
            "determinism"
        );
        let mut lossy = report.clone();
        lossy.completed -= 1;
        lossy.rejected += 1;
        assert_eq!(
            checks::workload("backlog-flood", w.requests(), &lossy)
                .unwrap_err()
                .check,
            "backlog-flood-completes"
        );
        assert_eq!(
            checks::workload("sharded-outage", w.requests(), &lossy)
                .unwrap_err()
                .check,
            "sharded-outage-loses-nothing"
        );
        assert_eq!(
            checks::traced_matches(&report, &report).unwrap_err().check,
            "traced-has-phases"
        );
        let rep = replay::replay(&w, 1, 0);
        checks::replay_matches(&report, &rep.tally).unwrap();
        let mut off = rep.tally;
        off.output_tokens += 1;
        assert_eq!(
            checks::replay_matches(&report, &off).unwrap_err().check,
            "replay-matches-program"
        );
    }
}
