//! Parallel sweep-point executor.
//!
//! The interned-id refactor made deployments cheap to build per point and
//! free of shared mutable state, so independent sweep points (rates, seeds,
//! scenario configs) can run on worker threads. [`ScenarioExecutor`] fans a
//! list of points out over `std::thread` workers and returns results in
//! **input order**, each with the kernel measurement of its own point
//! ([`PointStats`]): the desim kernel counters are thread-local and reset
//! per point, so the aggregated event counts and queue peaks are identical
//! whatever the thread count — only the wall clock changes.
//!
//! The worker count comes from `FIRST_BENCH_THREADS` (default: the machine's
//! available parallelism; `1` reproduces the sequential behaviour exactly,
//! on the calling thread).

use first_desim::stats::kernel;
use first_desim::SimRunStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Kernel measurement of one sweep point: the point's own wall clock plus
/// the thread-local desim counters it produced. Deterministic for a fixed
/// seed except for `wall_time_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointStats {
    /// Wall-clock seconds this point took on its worker.
    pub wall_time_s: f64,
    /// Simulation events the point processed (seed-deterministic).
    pub(crate) events_processed: u64,
    /// Largest queue depth the point observed (seed-deterministic).
    pub(crate) peak_queue_depth: usize,
}

/// One sweep point's result plus its kernel measurement.
#[derive(Debug)]
pub struct PointRun<R> {
    /// What the point's closure returned.
    pub result: R,
    /// The point's kernel measurement.
    pub stats: PointStats,
}

/// Runs independent sweep points across worker threads with deterministic
/// result ordering.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioExecutor {
    threads: usize,
}

impl ScenarioExecutor {
    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        ScenarioExecutor {
            threads: threads.max(1),
        }
    }

    /// The executor configured by `FIRST_BENCH_THREADS` (default: available
    /// cores; `1` = sequential on the calling thread).
    pub fn from_env() -> Self {
        let threads = std::env::var("FIRST_BENCH_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::with_threads(threads)
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over every point, at most `threads` at a time, and return the
    /// results in input order. `f` receives `(point_index, point)`; each
    /// invocation is metered separately (the kernel counters are reset on the
    /// worker before the point starts).
    ///
    /// # Panics
    /// Propagates a panic from any point after all workers stop.
    pub fn run<P, R, F>(&self, points: Vec<P>, f: F) -> Vec<PointRun<R>>
    where
        P: Send,
        R: Send,
        F: Fn(usize, P) -> R + Sync,
    {
        let total = points.len();
        if total == 0 {
            return Vec::new();
        }

        let run_point = |idx: usize, point: P| -> PointRun<R> {
            kernel::reset();
            let started = std::time::Instant::now();
            let result = f(idx, point);
            PointRun {
                result,
                stats: PointStats {
                    wall_time_s: started.elapsed().as_secs_f64(),
                    events_processed: kernel::events_processed(),
                    peak_queue_depth: kernel::peak_queue_depth(),
                },
            }
        };

        if self.threads == 1 {
            // Sequential fast path: same thread, same order, no locking.
            return points
                .into_iter()
                .enumerate()
                .map(|(i, p)| run_point(i, p))
                .collect();
        }

        let work: Vec<Mutex<Option<P>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<PointRun<R>>>> = (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(total) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    let point = work[idx]
                        .lock()
                        .expect("point mutex poisoned")
                        .take()
                        .expect("each point is claimed once");
                    let run = run_point(idx, point);
                    *slots[idx].lock().expect("slot mutex poisoned") = Some(run);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot mutex poisoned")
                    .expect("every point produced a result")
            })
            .collect()
    }
}

/// Fold per-point stats into one [`SimRunStats`]: events add, peaks keep the
/// maximum — the same totals a single-threaded whole-run meter reports —
/// while the wall clock is the *harness* wall (measured by the caller across
/// the whole sweep), not the sum of per-point walls.
pub fn aggregate_stats(
    points: impl IntoIterator<Item = PointStats>,
    harness_wall_s: f64,
    sim_time_s: f64,
) -> SimRunStats {
    let mut events = 0u64;
    let mut peak = 0usize;
    for p in points {
        events += p.events_processed;
        peak = peak.max(p.peak_queue_depth);
    }
    SimRunStats {
        wall_time_s: harness_wall_s,
        sim_time_s,
        events_processed: events,
        peak_queue_depth: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        for threads in [1, 4] {
            let exec = ScenarioExecutor::with_threads(threads);
            let out = exec.run((0..37usize).collect(), |idx, p| {
                assert_eq!(idx, p);
                p * 10
            });
            let values: Vec<usize> = out.iter().map(|r| r.result).collect();
            assert_eq!(values, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn per_point_kernel_stats_are_thread_count_independent() {
        let run = |threads: usize| -> Vec<(u64, usize)> {
            ScenarioExecutor::with_threads(threads)
                .run(vec![3usize, 5, 7], |_, n| {
                    for d in 1..=n {
                        kernel::record_event();
                        kernel::record_queue_depth(d);
                    }
                })
                .into_iter()
                .map(|r| (r.stats.events_processed, r.stats.peak_queue_depth))
                .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, vec![(3, 3), (5, 5), (7, 7)]);
        assert_eq!(run(4), sequential);
    }

    #[test]
    fn aggregation_matches_a_single_meter() {
        let stats = [
            PointStats {
                wall_time_s: 0.5,
                events_processed: 100,
                peak_queue_depth: 9,
            },
            PointStats {
                wall_time_s: 0.2,
                events_processed: 50,
                peak_queue_depth: 30,
            },
        ];
        let sim = aggregate_stats(stats, 0.6, 1234.0);
        assert_eq!(sim.events_processed, 150);
        assert_eq!(sim.peak_queue_depth, 30);
        assert_eq!(sim.wall_time_s, 0.6);
        assert_eq!(sim.sim_time_s, 1234.0);
    }

    #[test]
    fn empty_point_list_is_fine() {
        let out = ScenarioExecutor::from_env().run(Vec::<u32>::new(), |_, p| p);
        assert!(out.is_empty());
        assert!(ScenarioExecutor::with_threads(0).threads() == 1);
    }
}
