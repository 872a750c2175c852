//! Correctness checks. Each failure names its check; the benchmark then
//! exits non-zero without printing a result.

use crate::replay::Tally;
use first_core::GatewayReport;

/// A failed check: its name and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The check's name.
    pub check: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "check failed: {}: {}", self.check, self.detail)
    }
}

fn ensure(ok: bool, check: &'static str, detail: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure {
            check,
            detail: detail(),
        })
    }
}

/// Every offered request is completed, failed or rejected, for the run and
/// for every tenant.
pub fn conservation(r: &GatewayReport) -> Result<(), Failure> {
    ensure(
        r.offered == r.completed + r.failed + r.rejected,
        "conservation",
        || {
            format!(
                "offered {} != completed {} + failed {} + rejected {}",
                r.offered, r.completed, r.failed, r.rejected
            )
        },
    )?;
    for t in &r.tenants {
        ensure(
            t.offered == t.completed + t.failed + t.rejected,
            "conservation",
            || {
                format!(
                    "tenant {}: offered {} != completed {} + failed {} + rejected {}",
                    t.tenant, t.offered, t.completed, t.failed, t.rejected
                )
            },
        )?;
    }
    Ok(())
}

/// The checks particular to one workload, on top of conservation.
pub fn workload(name: &str, offered: usize, r: &GatewayReport) -> Result<(), Failure> {
    conservation(r)?;
    ensure(r.offered == offered, "offered", || {
        format!(
            "the program saw {} of {offered} generated requests",
            r.offered
        )
    })?;
    match name {
        "backlog-flood" => ensure(r.completed == r.offered, "backlog-flood-completes", || {
            format!("{} of {} requests completed", r.completed, r.offered)
        }),
        "sharded-outage" => ensure(
            r.accepted == r.completed + r.failed,
            "sharded-outage-loses-nothing",
            || {
                format!(
                    "accepted {} but completed {} + failed {}",
                    r.accepted, r.completed, r.failed
                )
            },
        ),
        _ => Ok(()),
    }
}

/// A stable digest of a report: FNV-1a over its JSON form.
pub fn digest(r: &GatewayReport) -> u64 {
    let json = serde_json::to_string(r).expect("reports serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Two runs of one seed must produce the same report.
pub fn deterministic(reference: u64, r: &GatewayReport) -> Result<(), Failure> {
    let d = digest(r);
    ensure(d == reference, "determinism", || {
        format!("report digest {d:016x} differs from the first run's {reference:016x}")
    })
}

/// A traced run must report exactly what the untraced run reported, apart
/// from the phase breakdown tracing adds.
pub fn traced_matches(untraced: &GatewayReport, traced: &GatewayReport) -> Result<(), Failure> {
    ensure(traced.phases.is_some(), "traced-has-phases", || {
        "the traced run carries no phase breakdown".to_string()
    })?;
    let mut stripped = traced.clone();
    stripped.phases = None;
    ensure(&stripped == untraced, "traced-matches-untraced", || {
        format!(
            "traced digest {:016x} != untraced digest {:016x} outside phases",
            digest(&stripped),
            digest(untraced)
        )
    })
}

/// The benchmark's own replay must conserve requests too.
pub fn replay_conservation(t: &Tally) -> Result<(), Failure> {
    ensure(
        t.offered == t.completed + t.failed + t.rejected,
        "replay-conservation",
        || {
            format!(
                "replay offered {} != completed {} + failed {} + rejected {}",
                t.offered, t.completed, t.failed, t.rejected
            )
        },
    )
}

/// Without a front tier the replay makes the calls `ScenarioRun::execute`
/// makes, in its order, so its request counts and output tokens must equal
/// the program's. This keeps the replay's per-layer attribution tied to
/// what the program does.
pub fn replay_matches(program: &GatewayReport, t: &Tally) -> Result<(), Failure> {
    let tokens: u64 = program.tenants.iter().map(|x| x.output_tokens).sum();
    let program_counts = (
        program.offered as u64,
        program.completed as u64,
        program.failed as u64,
        program.rejected as u64,
        tokens,
    );
    let replay_counts = (
        t.offered,
        t.completed,
        t.failed,
        t.rejected,
        t.output_tokens,
    );
    ensure(
        program_counts == replay_counts,
        "replay-matches-program",
        || {
            format!(
                "(offered, completed, failed, rejected, output tokens): replay {replay_counts:?} \
             != program {program_counts:?}"
            )
        },
    )
}
