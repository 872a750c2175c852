//! Batch processing mode (§4.4).
//!
//! Users submit a JSON Lines input file to `/v1/batches`; FIRST runs the whole
//! file as one dedicated HPC job that loads the model solely for that task and
//! processes every request offline, with no online serving layer in between.
//! The manager tracks job status ("validating", "queued", "in_progress",
//! "completed") so long-running jobs can be monitored.

use crate::gateway::Gateway;
use first_desim::{SimDuration, SimProcess, SimTime};
use first_hpc::{JobId, JobRequest, JobState};
use first_serving::{
    find_model, run_offline_batch, BatchRunReport, EngineConfig, InferenceRequest,
};
use first_workload::BatchInputFile;

/// Identifier of a batch job at the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId(pub(crate) u64);

/// Lifecycle of a batch job, mirroring the OpenAI batch states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchState {
    /// Input file accepted and validated.
    Validating,
    /// Dedicated HPC job waiting in the cluster queue.
    Queued,
    /// Model loading / requests being processed.
    InProgress,
    /// All requests processed; output available.
    Completed,
    /// The input file failed validation.
    Failed,
}

/// A batch job record.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Batch identifier.
    pub(crate) id: BatchId,
    /// Endpoint / cluster executing the job.
    pub(crate) endpoint: String,
    /// Current state.
    pub state: BatchState,
    /// Submission time.
    pub(crate) submitted_at: SimTime,
    /// When the dedicated HPC job started (resources allocated).
    pub(crate) started_at: Option<SimTime>,
    /// When the batch finished.
    pub(crate) completed_at: Option<SimTime>,
    /// Execution report, once completed.
    pub report: Option<BatchRunReport>,
    /// Underlying scheduler job.
    pub(crate) hpc_job: Option<JobId>,
    /// Validation error, if any.
    pub(crate) error: Option<String>,
}

impl BatchJob {
    /// Total wall time from submission to completion, if finished.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t - self.submitted_at)
    }
}

/// Manager for batch jobs submitted through `/v1/batches`.
#[derive(Debug, Default)]
pub struct BatchManager {
    jobs: Vec<BatchJob>,
}

impl BatchManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a batch job.
    pub fn job(&self, id: BatchId) -> Option<&BatchJob> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Submit a batch input file targeting `model` on behalf of `user`.
    ///
    /// The dedicated HPC job is submitted to the endpoint chosen by the
    /// federation registry (first endpoint hosting the model); its queue wait
    /// comes from that cluster's scheduler, and the execution profile from the
    /// offline batch runner.
    pub fn submit(
        &mut self,
        gateway: &mut Gateway,
        user: &str,
        model: &str,
        input: &BatchInputFile,
        now: SimTime,
    ) -> BatchId {
        let id = BatchId(self.jobs.len() as u64 + 1);
        let mut job = BatchJob {
            id,
            endpoint: String::new(),
            state: BatchState::Validating,
            submitted_at: now,
            started_at: None,
            completed_at: None,
            report: None,
            hpc_job: None,
            error: None,
        };

        // Validate the input file and model registration.
        if input.is_empty() {
            job.state = BatchState::Failed;
            job.error = Some("input file contains no requests".to_string());
            self.jobs.push(job);
            return id;
        }
        let Some(endpoints) = gateway.registry().endpoints_for(model).map(|e| e.to_vec()) else {
            job.state = BatchState::Failed;
            job.error = Some(format!("model '{model}' is not registered"));
            self.jobs.push(job);
            return id;
        };
        let Some(spec) = find_model(model) else {
            job.state = BatchState::Failed;
            job.error = Some(format!("model '{model}' is not in the catalog"));
            self.jobs.push(job);
            return id;
        };
        let endpoint_name = endpoints[0].clone();
        job.endpoint = endpoint_name.clone();

        // Build the dedicated job request and the offline execution profile.
        let gpu = gateway
            .service()
            .endpoint(&endpoint_name)
            .map(|ep| ep.config().gpu)
            .unwrap_or(first_hpc::GpuModel::A100_40);
        let engine_config = EngineConfig::for_model(spec.clone(), gpu);
        let requests: Vec<InferenceRequest> = input
            .lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                let prompt = line
                    .body
                    .messages
                    .iter()
                    .map(|m| m.content.split_whitespace().count() as u32)
                    .sum::<u32>()
                    .max(1);
                InferenceRequest::chat(i as u64, prompt, line.body.max_tokens.max(1))
            })
            .collect();
        let report = run_offline_batch(engine_config.clone(), requests);

        // Submit the dedicated HPC job on the endpoint's scheduler; the batch
        // occupies its allocation for the report's total duration.
        if let Some(ep) = gateway.service_mut().endpoint_mut(&endpoint_name) {
            let hpc_job = ep.scheduler_mut().submit(
                JobRequest {
                    nodes: engine_config.nodes,
                    gpus_per_node: engine_config.tensor_parallel.min(8),
                    walltime: report.total_duration + SimDuration::from_mins(30),
                    priority: first_hpc::JobPriority::Normal,
                    user: user.to_string(),
                },
                now,
            );
            job.hpc_job = Some(hpc_job);
            job.state = match ep.scheduler().job(hpc_job).map(|j| j.state) {
                Some(JobState::Running) => BatchState::InProgress,
                _ => BatchState::Queued,
            };
        } else {
            job.state = BatchState::Failed;
            job.error = Some(format!("endpoint '{endpoint_name}' not found"));
        }
        job.report = Some(report);
        self.jobs.push(job);
        id
    }

    /// Advance batch jobs: detect HPC job starts and mark completion when the
    /// offline run's duration has elapsed.
    pub fn advance(&mut self, gateway: &mut Gateway, now: SimTime) {
        for job in self.jobs.iter_mut() {
            if matches!(job.state, BatchState::Completed | BatchState::Failed) {
                continue;
            }
            let Some(hpc_job) = job.hpc_job else { continue };
            let Some(ep) = gateway.service_mut().endpoint_mut(&job.endpoint) else {
                continue;
            };
            ep.scheduler_mut().advance(now);
            let Some(rec) = ep.scheduler().job(hpc_job) else {
                continue;
            };
            if let Some(started) = rec.started_at {
                if job.started_at.is_none() {
                    job.started_at = Some(started);
                    job.state = BatchState::InProgress;
                }
                let duration = job
                    .report
                    .as_ref()
                    .map(|r| r.total_duration)
                    .unwrap_or_default();
                let finish = started + duration;
                if now >= finish {
                    job.state = BatchState::Completed;
                    job.completed_at = Some(finish);
                    ep.scheduler_mut().complete(hpc_job, finish);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::DeploymentBuilder;

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    #[test]
    fn batch_job_runs_to_completion() {
        let (mut gw, _tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        let mut mgr = BatchManager::new();
        let input = BatchInputFile::synthetic(MODEL, 200, 9);
        let id = mgr.submit(&mut gw, "alice", MODEL, &input, SimTime::ZERO);
        assert!(matches!(
            mgr.job(id).unwrap().state,
            BatchState::Queued | BatchState::InProgress
        ));
        // Drive far enough for load + processing of 200 requests.
        mgr.advance(&mut gw, SimTime::from_secs(20));
        assert_eq!(mgr.job(id).unwrap().state, BatchState::InProgress);
        mgr.advance(&mut gw, SimTime::from_secs(4 * 3600));
        let job = mgr.job(id).unwrap();
        assert_eq!(job.state, BatchState::Completed);
        let report = job.report.as_ref().unwrap();
        assert_eq!(report.requests, 200);
        // A 200-request batch is still cold-start dominated; steady-state
        // throughput is what the paper's 2117 tok/s figure reflects.
        assert!(report.overall_tokens_per_sec > 150.0);
        assert!(report.steady_tokens_per_sec > 800.0);
        assert!(job.turnaround().unwrap() >= report.total_duration);
    }

    #[test]
    fn empty_input_fails_validation() {
        let (mut gw, _tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        let mut mgr = BatchManager::new();
        let id = mgr.submit(
            &mut gw,
            "alice",
            MODEL,
            &BatchInputFile::new(),
            SimTime::ZERO,
        );
        assert_eq!(mgr.job(id).unwrap().state, BatchState::Failed);
    }

    #[test]
    fn unregistered_model_fails_validation() {
        let (mut gw, _tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        let mut mgr = BatchManager::new();
        let input = BatchInputFile::synthetic("ghost-model", 5, 1);
        let id = mgr.submit(&mut gw, "alice", "ghost-model", &input, SimTime::ZERO);
        assert_eq!(mgr.job(id).unwrap().state, BatchState::Failed);
        assert!(mgr.job(id).unwrap().error.is_some());
    }

    #[test]
    fn batch_waits_for_cluster_resources() {
        let (mut gw, _tokens) = DeploymentBuilder::single_cluster_test().build_with_tokens();
        // Fill the whole cluster with background jobs first.
        {
            let ep = gw.service_mut().endpoint_mut("sophia-endpoint").unwrap();
            for _ in 0..8 {
                ep.scheduler_mut().submit(
                    JobRequest::single_node(8, SimDuration::from_hours(1)),
                    SimTime::ZERO,
                );
            }
        }
        let mut mgr = BatchManager::new();
        let input = BatchInputFile::synthetic(MODEL, 50, 3);
        let id = mgr.submit(&mut gw, "bob", MODEL, &input, SimTime::ZERO);
        assert_eq!(mgr.job(id).unwrap().state, BatchState::Queued);
        // After the background jobs end, the batch starts and completes.
        mgr.advance(&mut gw, SimTime::from_secs(3600));
        assert!(matches!(
            mgr.job(id).unwrap().state,
            BatchState::InProgress | BatchState::Completed
        ));
        assert!(mgr.job(id).unwrap().started_at.unwrap() >= SimTime::from_secs(3600));
    }
}
