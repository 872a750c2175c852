//! Gateway worker-pool models (Optimization 3, §5.3.1).
//!
//! The original gateway used synchronous Django REST under Gunicorn: nine
//! worker processes, each blocked for the full duration of the request it was
//! relaying, so only nine requests could be in flight and the API's CPU sat
//! idle waiting on results. The production gateway uses asynchronous Django
//! Ninja with Uvicorn workers (`cpu_count()*2 + 1` workers, 4 threads each):
//! a request occupies a worker only for its brief CPU slice, so the gateway
//! can continuously offload work to the HPC cluster.

use first_desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Worker-pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum WorkerMode {
    /// Synchronous workers: a worker is held from admission until the
    /// response is delivered back to the client.
    Sync,
    /// Asynchronous workers: a worker is held only while the gateway does CPU
    /// work for the request (validation, serialisation, dispatch).
    Async,
}

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkerPoolConfig {
    /// Behaviour mode.
    pub(crate) mode: WorkerMode,
    /// Number of worker slots.
    pub(crate) workers: usize,
    /// CPU time the gateway spends on each request (parse, validate, convert
    /// to a Compute task, log).
    pub(crate) per_request_cpu: SimDuration,
}

impl WorkerPoolConfig {
    /// The pre-optimization configuration: nine synchronous workers.
    pub fn sync_legacy() -> Self {
        WorkerPoolConfig {
            mode: WorkerMode::Sync,
            workers: 9,
            per_request_cpu: SimDuration::from_millis(25),
        }
    }

    /// The production configuration: asynchronous Gunicorn/Uvicorn deployment
    /// (`cpu_count()×2 + 1` workers × 4 threads ≈ 260 concurrent slots on the
    /// 32-core gateway VM; the precise number matters far less than the mode).
    pub(crate) fn async_production() -> Self {
        WorkerPoolConfig {
            mode: WorkerMode::Async,
            workers: 260,
            per_request_cpu: SimDuration::from_millis(15),
        }
    }
}

/// Tracks worker occupancy over virtual time.
///
/// Workers are modelled as a pool of slots that each become free at a known
/// time; admission picks the earliest-free slot. Sync requests that find
/// every worker held wait in FIFO order for [`WorkerPool::release`].
#[derive(Debug, Clone)]
pub(crate) struct WorkerPool {
    config: WorkerPoolConfig,
    free_at: Vec<SimTime>,
    /// Arrival instants of the sync requests waiting for a worker.
    waiting: std::collections::VecDeque<SimTime>,
    /// Async-mode accelerator: `(free_at, worker)` min-heap so admission is
    /// O(log workers) instead of scanning all 260 production slots per
    /// request. Ties pop in worker-index order, matching the scan's
    /// first-minimum choice. Sync mode keeps the scan (slots parked at
    /// `SimTime::MAX` until released make heap bookkeeping messier than the
    /// nine-slot walk it would replace).
    free_heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, usize)>>,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admission {
    /// When a worker became available and gateway CPU work started.
    pub(crate) started_at: SimTime,
    /// When the request is ready to be forwarded to the compute fabric.
    pub(crate) dispatch_ready_at: SimTime,
    /// Index of the worker slot used (needed to release sync workers).
    pub(crate) worker: usize,
}

impl WorkerPool {
    /// Create a pool with all workers free at time zero.
    pub(crate) fn new(config: WorkerPoolConfig) -> Self {
        let workers = config.workers.max(1);
        let free_heap = if config.mode == WorkerMode::Async {
            (0..workers)
                .map(|w| std::cmp::Reverse((SimTime::ZERO, w)))
                .collect()
        } else {
            std::collections::BinaryHeap::new()
        };
        WorkerPool {
            free_at: vec![SimTime::ZERO; workers],
            waiting: std::collections::VecDeque::new(),
            free_heap,
            config,
        }
    }

    /// Admit a request arriving at `now`: wait for the earliest free worker,
    /// spend the per-request CPU, and (for async mode) release the slot at
    /// dispatch time. Sync-mode slots stay held until [`WorkerPool::release`].
    /// `None` when every sync worker is held: the request then waits, and
    /// the release that frees a worker for it returns its admission.
    pub(crate) fn admit(&mut self, now: SimTime) -> Option<Admission> {
        let (worker, slot_free) = match self.config.mode {
            WorkerMode::Async => {
                let std::cmp::Reverse((t, w)) =
                    self.free_heap.pop().expect("pool has at least one worker");
                (w, t)
            }
            WorkerMode::Sync => {
                let (worker, &slot_free) = self
                    .free_at
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .expect("pool has at least one worker");
                if slot_free == SimTime::MAX {
                    self.waiting.push_back(now);
                    return None;
                }
                (worker, slot_free)
            }
        };
        Some(self.start(worker, now.max(slot_free)))
    }

    /// Start a request on `worker` at `started_at`.
    fn start(&mut self, worker: usize, started_at: SimTime) -> Admission {
        let dispatch_ready_at = started_at + self.config.per_request_cpu;
        self.free_at[worker] = match self.config.mode {
            // Async workers free up as soon as the CPU slice is done.
            WorkerMode::Async => {
                self.free_heap
                    .push(std::cmp::Reverse((dispatch_ready_at, worker)));
                dispatch_ready_at
            }
            // Sync workers stay busy until release() is called; park them far
            // in the future so they are not picked again.
            WorkerMode::Sync => SimTime::MAX,
        };
        Admission {
            started_at,
            dispatch_ready_at,
            worker,
        }
    }

    /// Release a sync worker at `now`, when its request's response has been
    /// delivered; the oldest waiting request starts on it, and its admission
    /// is returned. No-op in async mode.
    pub(crate) fn release(&mut self, worker: usize, now: SimTime) -> Option<Admission> {
        if self.config.mode != WorkerMode::Sync || worker >= self.free_at.len() {
            return None;
        }
        self.free_at[worker] = now;
        let arrived = self.waiting.pop_front()?;
        Some(self.start(worker, now.max(arrived)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_pool_admits_large_bursts_with_small_delay() {
        let mut pool = WorkerPool::new(WorkerPoolConfig::async_production());
        let mut worst = SimDuration::ZERO;
        let mut used = vec![false; pool.free_at.len()];
        for _ in 0..1000 {
            let a = pool.admit(SimTime::ZERO).expect("async pools never queue");
            used[a.worker] = true;
            let delay = a.dispatch_ready_at - SimTime::ZERO;
            if delay > worst {
                worst = delay;
            }
        }
        // 1000 requests over 260 async slots at 15 ms each: worst-case wait
        // stays well under a second, and the burst spreads over every slot.
        assert!(worst.as_secs_f64() < 0.2, "worst delay {worst}");
        assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn sync_pool_blocks_at_nine_in_flight() {
        let mut pool = WorkerPool::new(WorkerPoolConfig::sync_legacy());
        let admissions: Vec<Admission> = (0..9)
            .map(|_| pool.admit(SimTime::ZERO).expect("a worker is free"))
            .collect();
        // The tenth and eleventh requests wait until a worker is released.
        assert_eq!(pool.admit(SimTime::from_secs(1)), None);
        assert_eq!(pool.admit(SimTime::from_secs(2)), None);
        // Release one worker at t=30 s (its response came back): the tenth
        // request starts on it at once, and has waited 29 s.
        let tenth = pool
            .release(admissions[0].worker, SimTime::from_secs(30))
            .expect("the oldest waiting request starts");
        assert_eq!(tenth.started_at, SimTime::from_secs(30));
        assert_eq!(tenth.worker, admissions[0].worker);
        // The next release starts the eleventh; a release with nobody
        // waiting frees the worker for the next arrival.
        let eleventh = pool.release(admissions[1].worker, SimTime::from_secs(31));
        assert_eq!(eleventh.map(|a| a.started_at), Some(SimTime::from_secs(31)));
        assert_eq!(
            pool.release(admissions[2].worker, SimTime::from_secs(40)),
            None
        );
        let twelfth = pool
            .admit(SimTime::from_secs(45))
            .expect("a worker is free");
        assert_eq!(twelfth.started_at, SimTime::from_secs(45));
    }

    #[test]
    fn sync_release_is_noop_for_async() {
        let mut pool = WorkerPool::new(WorkerPoolConfig::async_production());
        let a = pool.admit(SimTime::ZERO).expect("async pools never queue");
        assert_eq!(pool.release(a.worker, SimTime::from_secs(100)), None);
        // Async slot already became free at dispatch time, far before 100 s.
        let free = pool.free_at.iter().filter(|&&t| t <= SimTime::from_secs(1));
        assert!(free.count() >= 259);
    }

    #[test]
    fn admission_waits_are_tracked() {
        let mut pool = WorkerPool::new(WorkerPoolConfig {
            mode: WorkerMode::Async,
            workers: 1,
            per_request_cpu: SimDuration::from_millis(100),
        });
        pool.admit(SimTime::ZERO);
        let second = pool.admit(SimTime::ZERO).expect("async pools never queue");
        // The second request waits for the one worker's 100 ms CPU slice.
        assert_eq!(second.started_at, SimTime::from_millis(100));
    }
}
