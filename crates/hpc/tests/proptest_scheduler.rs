//! Property-based tests: the scheduler never oversubscribes GPUs and always
//! conserves them across arbitrary submit/complete/advance sequences.

use first_desim::{SimDuration, SimProcess, SimTime};
use first_hpc::{BatchScheduler, Cluster, JobRequest, JobState};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Submit { gpus: u32, walltime_mins: u64 },
    CompleteOldest,
    Advance { mins: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=8, 10u64..240).prop_map(|(gpus, walltime_mins)| Op::Submit {
            gpus,
            walltime_mins
        }),
        Just(Op::CompleteOldest),
        (1u64..120).prop_map(|mins| Op::Advance { mins }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_never_oversubscribes(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let nodes = 3u32;
        let gpus_per_node = 8u32;
        let mut sched = BatchScheduler::new(Cluster::tiny("prop", nodes, gpus_per_node));
        let mut now = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Submit { gpus, walltime_mins } => {
                    sched.submit(
                        JobRequest::single_node(gpus, SimDuration::from_mins(walltime_mins)),
                        now,
                    );
                }
                Op::CompleteOldest => {
                    let running: Vec<_> = sched
                        .jobs()
                        .filter(|j| j.state == JobState::Running)
                        .map(|j| j.id)
                        .collect();
                    if let Some(&id) = running.first() {
                        sched.complete(id, now);
                    }
                }
                Op::Advance { mins } => {
                    now += SimDuration::from_mins(mins);
                    sched.advance(now);
                }
            }

            // Invariant 1: free + allocated GPUs always equals the cluster total.
            let status = sched.cluster_status();
            let allocated: u32 = sched
                .jobs()
                .filter(|j| j.state == JobState::Running)
                .map(|j| j.allocation.total_gpus())
                .sum();
            prop_assert_eq!(status.free_gpus + allocated, nodes * gpus_per_node);

            // Invariant 2: per-node allocations never exceed the node size.
            for node in &sched.cluster().nodes {
                prop_assert!(node.allocated_gpus() <= gpus_per_node);
            }

            // Invariant 3: running jobs each hold exactly what they asked for.
            for job in sched.jobs() {
                if job.state == JobState::Running {
                    prop_assert_eq!(job.allocation.total_gpus(), job.request.total_gpus());
                }
            }
        }
    }

    #[test]
    fn queue_drains_when_everything_completes(
        gpu_sizes in proptest::collection::vec(1u32..=8, 1..40)
    ) {
        let mut sched = BatchScheduler::new(Cluster::tiny("drain", 2, 8));
        let mut now = SimTime::ZERO;
        for &g in &gpu_sizes {
            sched.submit(
                JobRequest::single_node(g, SimDuration::from_hours(10)),
                now,
            );
        }
        // Repeatedly complete running jobs; everything must eventually finish.
        for _ in 0..gpu_sizes.len() * 2 {
            now += SimDuration::from_mins(1);
            let running: Vec<_> = sched
                .jobs()
                .filter(|j| j.state == JobState::Running)
                .map(|j| j.id)
                .collect();
            for id in running {
                sched.complete(id, now);
            }
        }
        prop_assert_eq!(sched.queued_count(), 0);
        prop_assert!(sched.jobs().all(|j| j.state == JobState::Completed));
        prop_assert_eq!(sched.cluster_status().free_gpus, 16);
    }
}
