//! Batch-job descriptions and lifecycle states.

use crate::node::NodeId;
use first_desim::{SimDuration, SimTime};

/// Unique job identifier assigned by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority class (PBS-style queue priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobPriority {
    /// Default priority.
    Normal = 1,
    /// Interactive / demand priority (used for hot-node acquisitions).
    High = 2,
}

/// What the job asks the scheduler for.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Number of nodes requested.
    pub nodes: u32,
    /// GPUs required on each node (≤ GPUs per node). `0` means whole node.
    pub gpus_per_node: u32,
    /// Maximum walltime.
    pub walltime: SimDuration,
    /// Priority class.
    pub priority: JobPriority,
    /// Submitting user (free-form; the scheduler does not enforce auth).
    pub user: String,
}

impl JobRequest {
    /// A single-node GPU job (the common case for model serving).
    pub fn single_node(gpus: u32, walltime: SimDuration) -> Self {
        JobRequest {
            nodes: 1,
            gpus_per_node: gpus,
            walltime,
            priority: JobPriority::Normal,
            user: "first-service".to_string(),
        }
    }

    /// Override the submitting user.
    pub fn with_user(mut self, user: impl Into<String>) -> Self {
        self.user = user.into();
        self
    }

    /// Total GPUs requested across all nodes.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }
}

/// Where a running job's resources live.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// `(node, gpu count)` pairs granted to the job.
    pub(crate) placements: Vec<(NodeId, u32)>,
}

impl Allocation {
    /// Node ids in the allocation.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.placements.iter().map(|(n, _)| *n).collect()
    }

    /// Total GPUs in the allocation.
    pub fn total_gpus(&self) -> u32 {
        self.placements.iter().map(|(_, gpus)| gpus).sum()
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the scheduler queue for resources.
    Queued,
    /// Resources allocated, job processes running.
    Running,
    /// Finished normally (released by its owner).
    Completed,
    /// Killed by the scheduler for exceeding its walltime.
    TimedOut,
    /// Cancelled while still queued or running.
    Cancelled,
}

impl JobState {
    /// Whether the job still holds or may hold resources.
    pub(crate) fn is_active(&self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Full record the scheduler keeps per job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job identifier.
    pub id: JobId,
    /// The original request.
    pub request: JobRequest,
    /// Current state.
    pub state: JobState,
    /// Submission time.
    pub(crate) submitted_at: SimTime,
    /// Start time (when resources were granted).
    pub started_at: Option<SimTime>,
    /// End time (completion, timeout or cancellation).
    pub(crate) ended_at: Option<SimTime>,
    /// Granted resources while running.
    pub allocation: Allocation,
}

impl JobRecord {
    /// Queue wait so far (or total queue wait once started).
    pub(crate) fn queue_wait(&self, now: SimTime) -> SimDuration {
        match self.started_at {
            Some(s) => s - self.submitted_at,
            None => now - self.submitted_at,
        }
    }

    /// Walltime deadline, if running.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        self.started_at.map(|s| s + self.request.walltime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let r = JobRequest::single_node(8, SimDuration::from_hours(2)).with_user("gateway");
        assert_eq!(r.nodes, 1);
        assert_eq!(r.total_gpus(), 8);
        assert_eq!(r.priority, JobPriority::Normal);
        assert_eq!(r.user, "gateway");
        let m = JobRequest {
            nodes: 3,
            ..JobRequest::single_node(8, SimDuration::from_hours(4))
        };
        assert_eq!(m.total_gpus(), 24);
    }

    #[test]
    fn state_activity() {
        assert!(JobState::Queued.is_active());
        assert!(JobState::Running.is_active());
        assert!(!JobState::Completed.is_active());
        assert!(!JobState::TimedOut.is_active());
        assert!(!JobState::Cancelled.is_active());
    }

    #[test]
    fn record_timings() {
        let rec = JobRecord {
            id: JobId(1),
            request: JobRequest::single_node(4, SimDuration::from_hours(1)),
            state: JobState::Running,
            submitted_at: SimTime::from_secs(10),
            started_at: Some(SimTime::from_secs(70)),
            ended_at: None,
            allocation: Allocation::default(),
        };
        assert_eq!(
            rec.queue_wait(SimTime::from_secs(100)),
            SimDuration::from_secs(60)
        );
        assert_eq!(rec.deadline(), Some(SimTime::from_secs(70 + 3600)));
    }

    #[test]
    fn priority_ordering() {
        assert!(JobPriority::High > JobPriority::Normal);
    }
}
