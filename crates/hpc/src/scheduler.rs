//! PBS-style batch scheduler.
//!
//! Models the part of the facility stack FIRST interacts with (§2.3, §4.3):
//! jobs are submitted to a queue, wait for node/GPU allocation, run until
//! released by their owner or killed at their walltime limit, and the queue is
//! drained in priority order with simple backfill so small jobs can slip past
//! blocked large ones — the behaviour that shapes cold-start wait times.

use crate::cluster::{Cluster, ClusterStatus};
use crate::job::{Allocation, JobId, JobRecord, JobRequest, JobState};
use crate::node::NodeId;
use first_desim::{SimProcess, SimTime};
use std::collections::BTreeMap;

/// Events emitted by the scheduler as jobs change state.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerEvent {
    /// When the transition happened.
    pub time: SimTime,
    /// Which job.
    pub job: JobId,
    /// What happened.
    pub kind: SchedulerEventKind,
}

/// The kind of job state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEventKind {
    /// Resources granted; job processes launched.
    Started,
    /// Job released its resources normally.
    Completed,
    /// Job exceeded its walltime and was killed.
    TimedOut,
    /// Job was cancelled.
    Cancelled,
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs started.
    pub started: u64,
    /// Jobs completed normally.
    pub(crate) completed: u64,
    /// Jobs killed at walltime.
    pub(crate) timed_out: u64,
    /// Jobs cancelled.
    pub(crate) cancelled: u64,
    /// Sum of queue-wait seconds over started jobs (for mean wait).
    pub total_queue_wait_secs: f64,
}

/// The batch scheduler for one cluster.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    cluster: Cluster,
    /// Every job ever submitted, for `/jobs` and the tests.
    jobs: BTreeMap<JobId, JobRecord>,
    /// The running jobs with their walltime deadlines, in `JobId` order:
    /// the per-advance walltime and next-event scans read only these, not
    /// the whole history.
    running: Vec<(JobId, SimTime)>,
    queue: Vec<JobId>,
    events: Vec<SchedulerEvent>,
    stats: SchedulerStats,
    next_id: u64,
    last_advance: SimTime,
}

impl BatchScheduler {
    /// Create a scheduler managing the given cluster.
    pub fn new(cluster: Cluster) -> Self {
        BatchScheduler {
            cluster,
            jobs: BTreeMap::new(),
            running: Vec::new(),
            queue: Vec::new(),
            events: Vec::new(),
            stats: SchedulerStats::default(),
            next_id: 1,
            last_advance: SimTime::ZERO,
        }
    }

    /// The managed cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the managed cluster (e.g. to drain a node).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Publicly visible cluster occupancy.
    pub fn cluster_status(&self) -> ClusterStatus {
        self.cluster.status()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Look up a job record.
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// All job records (for the `/jobs` endpoint and tests).
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// Number of jobs waiting in the queue.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }

    /// The earliest walltime deadline among running jobs.
    fn earliest_deadline(&self) -> Option<SimTime> {
        self.running.iter().map(|&(_, deadline)| deadline).min()
    }

    /// Drop a job from the running index (a no-op for one not running).
    fn stop_running(&mut self, id: JobId) {
        if let Ok(pos) = self.running.binary_search_by_key(&id, |&(job, _)| job) {
            self.running.remove(pos);
        }
    }

    /// Drain the accumulated state-transition events.
    pub fn take_events(&mut self) -> Vec<SchedulerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Submit a job. The job may start immediately if resources are free.
    pub fn submit(&mut self, request: JobRequest, now: SimTime) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            JobRecord {
                id,
                request,
                state: JobState::Queued,
                submitted_at: now,
                started_at: None,
                ended_at: None,
                allocation: Allocation::default(),
            },
        );
        self.queue.push(id);
        self.stats.submitted += 1;
        self.try_schedule(now);
        id
    }

    /// Cancel a queued or running job.
    pub fn cancel(&mut self, id: JobId, now: SimTime) -> bool {
        let Some(rec) = self.jobs.get_mut(&id) else {
            return false;
        };
        if !rec.state.is_active() {
            return false;
        }
        if rec.state == JobState::Running {
            let alloc = std::mem::take(&mut rec.allocation);
            Self::release_allocation(&mut self.cluster, &alloc);
        }
        rec.state = JobState::Cancelled;
        rec.ended_at = Some(now);
        self.stop_running(id);
        self.queue.retain(|&q| q != id);
        self.stats.cancelled += 1;
        self.events.push(SchedulerEvent {
            time: now,
            job: id,
            kind: SchedulerEventKind::Cancelled,
        });
        self.try_schedule(now);
        true
    }

    /// Release a running job's resources (normal completion).
    pub fn complete(&mut self, id: JobId, now: SimTime) -> bool {
        let Some(rec) = self.jobs.get_mut(&id) else {
            return false;
        };
        if rec.state != JobState::Running {
            return false;
        }
        let alloc = std::mem::take(&mut rec.allocation);
        Self::release_allocation(&mut self.cluster, &alloc);
        rec.state = JobState::Completed;
        rec.ended_at = Some(now);
        self.stop_running(id);
        self.stats.completed += 1;
        self.events.push(SchedulerEvent {
            time: now,
            job: id,
            kind: SchedulerEventKind::Completed,
        });
        self.try_schedule(now);
        true
    }

    fn release_allocation(cluster: &mut Cluster, alloc: &Allocation) {
        for &(node_id, gpus) in &alloc.placements {
            if let Some(node) = cluster.node_mut(node_id) {
                node.release_gpus(gpus);
            }
        }
    }

    /// Attempt to place a request without mutating anything; returns the
    /// candidate placement if it fits right now.
    fn find_placement(&self, request: &JobRequest) -> Option<Vec<(NodeId, u32)>> {
        let per_node = if request.gpus_per_node == 0 {
            None // whole node
        } else {
            Some(request.gpus_per_node)
        };
        let mut chosen: Vec<(NodeId, u32)> = Vec::new();
        for node in &self.cluster.nodes {
            if chosen.len() as u32 == request.nodes {
                break;
            }
            if node.offline {
                continue;
            }
            match per_node {
                None => {
                    if node.is_idle() && node.gpus > 0 {
                        chosen.push((node.id, node.gpus));
                    }
                }
                Some(g) => {
                    if node.free_gpus() >= g {
                        chosen.push((node.id, g));
                    }
                }
            }
        }
        if chosen.len() as u32 == request.nodes {
            Some(chosen)
        } else {
            None
        }
    }

    /// Scan the queue (priority order, then FIFO, with backfill) and start
    /// every job that fits.
    fn try_schedule(&mut self, now: SimTime) {
        // Sort a copy of the queue indices by (priority desc, submit order asc).
        let mut order: Vec<JobId> = self.queue.clone();
        order.sort_by_key(|id| {
            let rec = &self.jobs[id];
            (
                std::cmp::Reverse(rec.request.priority as u8),
                rec.submitted_at,
                id.0,
            )
        });

        for id in order {
            let Some(rec) = self.jobs.get(&id) else {
                continue;
            };
            if rec.state != JobState::Queued {
                continue;
            }
            let Some(placement) = self.find_placement(&rec.request) else {
                // Backfill: a job that does not fit is skipped; later (smaller)
                // jobs may still start. High-priority blocking is intentionally
                // not modelled — inference service jobs are small relative to
                // the cluster and the paper relies on shared-queue behaviour.
                continue;
            };
            // Perform the allocation.
            for &(node_id, count) in &placement {
                let node = self
                    .cluster
                    .node_mut(node_id)
                    .expect("placement referenced a known node");
                assert!(node.allocate_gpus(count), "placement verified free GPUs");
            }
            let rec = self.jobs.get_mut(&id).expect("job exists");
            rec.allocation = Allocation {
                placements: placement,
            };
            rec.state = JobState::Running;
            rec.started_at = Some(now);
            let deadline = rec.deadline().expect("a running job has started");
            let pos = self
                .running
                .binary_search_by_key(&id, |&(job, _)| job)
                .expect_err("a queued job is not running");
            self.running.insert(pos, (id, deadline));
            self.queue.retain(|&q| q != id);
            self.stats.started += 1;
            self.stats.total_queue_wait_secs += rec.queue_wait(now).as_secs_f64();
            self.events.push(SchedulerEvent {
                time: now,
                job: id,
                kind: SchedulerEventKind::Started,
            });
        }
    }

    /// Kill jobs whose walltime expired at or before `now`, in `JobId`
    /// order.
    fn enforce_walltime(&mut self, now: SimTime) {
        let mut from = 0;
        while let Some(offset) = self.running[from..].iter().position(|&(_, d)| d <= now) {
            from += offset;
            let (id, deadline) = self.running.remove(from);
            let rec = self.jobs.get_mut(&id).expect("job exists");
            let alloc = std::mem::take(&mut rec.allocation);
            Self::release_allocation(&mut self.cluster, &alloc);
            rec.state = JobState::TimedOut;
            rec.ended_at = Some(deadline);
            self.stats.timed_out += 1;
            self.events.push(SchedulerEvent {
                time: deadline,
                job: id,
                kind: SchedulerEventKind::TimedOut,
            });
        }
    }
}

impl SimProcess for BatchScheduler {
    fn next_event_time(&self) -> Option<SimTime> {
        self.earliest_deadline()
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "time went backwards");
        self.last_advance = now;
        self.enforce_walltime(now);
        self.try_schedule(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPriority;
    use first_desim::SimDuration;

    fn scheduler(nodes: u32, gpus: u32) -> BatchScheduler {
        BatchScheduler::new(Cluster::tiny("test", nodes, gpus))
    }

    #[test]
    fn job_starts_immediately_when_resources_free() {
        let mut s = scheduler(2, 8);
        let id = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.running.len(), 1);
        assert_eq!(s.cluster_status().idle_nodes, 1);
        let events = s.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SchedulerEventKind::Started);
    }

    #[test]
    fn job_queues_when_cluster_full_and_starts_on_release() {
        let mut s = scheduler(1, 8);
        let a = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        let b = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(2)),
            SimTime::from_secs(10),
        );
        assert_eq!(s.job(b).unwrap().state, JobState::Queued);
        assert_eq!(s.queued_count(), 1);

        s.complete(a, SimTime::from_secs(500));
        assert_eq!(s.job(b).unwrap().state, JobState::Running);
        assert_eq!(
            s.job(b).unwrap().queue_wait(SimTime::from_secs(500)),
            SimDuration::from_secs(490)
        );
    }

    #[test]
    fn gpu_colocation_on_one_node() {
        // 70B on 6 GPUs plus 8B and 7B on one GPU each — the §3.2.2 example.
        let mut s = scheduler(1, 8);
        let a = s.submit(
            JobRequest::single_node(6, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        let b = s.submit(
            JobRequest::single_node(1, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        let c = s.submit(
            JobRequest::single_node(1, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        for id in [a, b, c] {
            assert_eq!(s.job(id).unwrap().state, JobState::Running);
        }
        assert_eq!(s.cluster_status().free_gpus, 0);
    }

    #[test]
    fn backfill_lets_small_jobs_pass_blocked_large_ones() {
        let mut s = scheduler(2, 8);
        // Fill one node.
        s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(4)),
            SimTime::ZERO,
        );
        // Needs two whole nodes -> cannot start.
        let blocked = s.submit(
            JobRequest {
                nodes: 2,
                ..JobRequest::single_node(8, SimDuration::from_hours(4))
            },
            SimTime::ZERO,
        );
        // Small job fits on the second node and should backfill past it.
        let small = s.submit(
            JobRequest::single_node(2, SimDuration::from_hours(1)),
            SimTime::from_secs(1),
        );
        assert_eq!(s.job(blocked).unwrap().state, JobState::Queued);
        assert_eq!(s.job(small).unwrap().state, JobState::Running);
    }

    #[test]
    fn walltime_enforcement_frees_resources() {
        let mut s = scheduler(1, 8);
        let id = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(2)),
            SimTime::ZERO,
        );
        assert_eq!(
            SimProcess::next_event_time(&s),
            Some(SimTime::from_secs(7200))
        );
        s.advance(SimTime::from_secs(7200));
        assert_eq!(s.job(id).unwrap().state, JobState::TimedOut);
        assert_eq!(s.cluster_status().free_gpus, 8);
        assert_eq!(s.stats().timed_out, 1);
    }

    #[test]
    fn walltime_expiry_lets_queued_job_start() {
        let mut s = scheduler(1, 8);
        s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        let b = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        s.advance(SimTime::from_secs(3600));
        assert_eq!(s.job(b).unwrap().state, JobState::Running);
        assert_eq!(s.job(b).unwrap().started_at, Some(SimTime::from_secs(3600)));
    }

    #[test]
    fn cancel_queued_and_running_jobs() {
        let mut s = scheduler(1, 4);
        let a = s.submit(
            JobRequest::single_node(4, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        let b = s.submit(
            JobRequest::single_node(4, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        assert!(s.cancel(b, SimTime::from_secs(5)));
        assert_eq!(s.job(b).unwrap().state, JobState::Cancelled);
        assert!(s.cancel(a, SimTime::from_secs(6)));
        assert_eq!(s.cluster_status().free_gpus, 4);
        // Cancelling twice is a no-op.
        assert!(!s.cancel(a, SimTime::from_secs(7)));
    }

    #[test]
    fn high_priority_jobs_start_first() {
        let mut s = scheduler(1, 8);
        let running = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        let normal = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::from_secs(1),
        );
        let urgent = s.submit(
            JobRequest {
                priority: JobPriority::High,
                ..JobRequest::single_node(8, SimDuration::from_hours(1))
            },
            SimTime::from_secs(2),
        );
        s.complete(running, SimTime::from_secs(100));
        assert_eq!(s.job(urgent).unwrap().state, JobState::Running);
        assert_eq!(s.job(normal).unwrap().state, JobState::Queued);
    }

    #[test]
    fn multi_node_allocation_for_large_models() {
        let mut s = scheduler(4, 8);
        let id = s.submit(
            JobRequest {
                nodes: 3,
                ..JobRequest::single_node(8, SimDuration::from_hours(2))
            },
            SimTime::ZERO,
        );
        let rec = s.job(id).unwrap();
        assert_eq!(rec.state, JobState::Running);
        assert_eq!(rec.allocation.total_gpus(), 24);
        assert_eq!(rec.allocation.nodes().len(), 3);
    }

    #[test]
    fn whole_node_requests_require_idle_nodes() {
        let mut s = scheduler(2, 8);
        s.submit(
            JobRequest::single_node(1, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        // gpus_per_node == 0 means "whole node": only one node is fully idle.
        let whole = JobRequest {
            nodes: 2,
            gpus_per_node: 0,
            walltime: SimDuration::from_hours(1),
            priority: JobPriority::Normal,
            user: "u".into(),
        };
        let id = s.submit(whole, SimTime::ZERO);
        assert_eq!(s.job(id).unwrap().state, JobState::Queued);
    }

    #[test]
    fn stats_track_queue_waits() {
        let mut s = scheduler(1, 8);
        let a = s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        s.submit(
            JobRequest::single_node(8, SimDuration::from_hours(1)),
            SimTime::ZERO,
        );
        s.complete(a, SimTime::from_secs(100));
        assert_eq!(s.stats().started, 2);
        // Job b waited 100 s for a, job a none.
        assert!((s.stats().total_queue_wait_secs - 100.0).abs() < 1e-9);
    }

    mod running_index {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Submit { gpus: u32, walltime_mins: u64 },
            Complete(usize),
            Cancel(usize),
            Advance { mins: u64 },
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1u32..=8, 10u64..240).prop_map(|(gpus, walltime_mins)| Op::Submit {
                    gpus,
                    walltime_mins
                }),
                (0usize..8).prop_map(Op::Complete),
                (0usize..8).prop_map(Op::Cancel),
                (1u64..120).prop_map(|mins| Op::Advance { mins }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// After any mix of submits, completions, cancellations and
            /// walltime expiries, the running index holds exactly the jobs
            /// a scan of the full history finds running, with their
            /// deadlines, and the next event is the scan's earliest one.
            #[test]
            fn running_index_matches_a_scan_of_every_job(
                ops in collection::vec(op(), 1..80),
            ) {
                let mut s = scheduler(3, 8);
                let mut now = SimTime::ZERO;
                for op in ops {
                    let active: Vec<JobId> =
                        s.jobs().filter(|j| j.state.is_active()).map(|j| j.id).collect();
                    match op {
                        Op::Submit { gpus, walltime_mins } => {
                            let walltime = SimDuration::from_mins(walltime_mins);
                            s.submit(JobRequest::single_node(gpus, walltime), now);
                        }
                        Op::Complete(k) => {
                            if let Some(&id) = active.get(k) {
                                s.complete(id, now);
                            }
                        }
                        Op::Cancel(k) => {
                            if let Some(&id) = active.get(k) {
                                s.cancel(id, now);
                            }
                        }
                        Op::Advance { mins } => {
                            now += SimDuration::from_mins(mins);
                            s.advance(now);
                        }
                    }
                    let scan: Vec<(JobId, SimTime)> = s
                        .jobs()
                        .filter(|j| j.state == JobState::Running)
                        .map(|j| (j.id, j.deadline().expect("running jobs have started")))
                        .collect();
                    prop_assert_eq!(&s.running, &scan);
                    prop_assert_eq!(s.running.len(), scan.len());
                    prop_assert_eq!(
                        SimProcess::next_event_time(&s),
                        scan.iter().map(|&(_, d)| d).min()
                    );
                }
            }
        }
    }
}
