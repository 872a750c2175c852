//! Compute endpoint: the agent deployed on each HPC cluster (§3.2).
//!
//! The endpoint receives inference tasks from the cloud service, acquires
//! compute nodes through the cluster's batch scheduler, launches serving-
//! engine instances on them, keeps those instances warm between requests,
//! auto-scales additional instances when existing ones saturate, releases
//! resources after an extended idle period, and restarts failed instances —
//! all without human intervention.

use crate::config::{EndpointConfig, ModelHostingConfig};
use crate::task::{TaskId, TaskResult};
use first_desim::{SimDuration, SimProcess, SimTime};
use first_hpc::{
    BatchScheduler, Cluster, ClusterStatus, JobId, JobPriority, JobRequest, JobState, NodeId,
};
use first_serving::{
    EmbeddingEngine, EngineState, InferenceCompletion, InferenceRequest, RequestId, VllmEngine,
};
use std::collections::VecDeque;

/// Walltime requested for each instance's batch job.
const JOB_WALLTIME: SimDuration = SimDuration::from_hours(12);

/// Idle period after which a warm instance is released (§3.2.2: 2 hours).
const IDLE_TIMEOUT: SimDuration = SimDuration::from_hours(2);

/// Serving backend held by an instance.
#[derive(Debug, Clone)]
enum InstanceBackend {
    /// Autoregressive LLM served by the vLLM-style engine (boxed: the engine
    /// carries its KV pool and batch state, far larger than the embedding
    /// variant, and instances are scanned densely every advance).
    Vllm(Box<VllmEngine>),
    /// Embedding model served by the Infinity-style engine.
    Embedding(EmbeddingEngine),
}

impl InstanceBackend {
    fn advance(&mut self, now: SimTime) {
        match self {
            InstanceBackend::Vllm(engine) => engine.advance(now),
            InstanceBackend::Embedding(engine) => engine.advance(now),
        }
    }

    fn take_completions(&mut self) -> Vec<InferenceCompletion> {
        match self {
            InstanceBackend::Vllm(engine) => engine.take_completions(),
            InstanceBackend::Embedding(engine) => engine.take_completions(),
        }
    }

    fn submit(&mut self, request: InferenceRequest, now: SimTime) {
        match self {
            InstanceBackend::Vllm(engine) => {
                engine.enqueue(request, now);
            }
            InstanceBackend::Embedding(engine) => engine.submit(request, now),
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match self {
            InstanceBackend::Vllm(engine) => SimProcess::next_event_time(engine.as_ref()),
            InstanceBackend::Embedding(engine) => SimProcess::next_event_time(engine),
        }
    }
}

/// Lifecycle of a model instance on the endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Batch job submitted, waiting for node allocation.
    PendingJob,
    /// Nodes allocated; model weights loading.
    Loading,
    /// Serving ("hot").
    Ready,
    /// Released (idle timeout, walltime or preemption). A released
    /// instance leaves the endpoint's instance list at the end of the pass
    /// that released it; a crashed one leaves it at the crash.
    Released,
}

/// One running (or starting) serving instance of a model.
#[derive(Debug, Clone)]
pub struct ModelInstance {
    /// Model served.
    pub model: String,
    /// Scheduler job backing the instance.
    pub(crate) job: JobId,
    /// Current lifecycle state.
    pub state: InstanceState,
    /// Index of the hosting entry in the endpoint config — the interned form
    /// of `model`, so the per-advance scans compare integers, not strings.
    hosting: usize,
    backend: Option<InstanceBackend>,
    /// Tasks submitted to the backend and not yet finished, in strictly
    /// ascending id order. The order holds because the service hands tasks
    /// over in `(deliver_at, task id)` order from a FIFO dispatcher, so ids
    /// reach a hosting's `waiting` queue ascending, and that queue is FIFO;
    /// the push checks it, and a completion leaves by binary search.
    in_flight: Vec<TaskId>,
    last_active: SimTime,
}

impl ModelInstance {
    /// Number of tasks currently assigned to this instance.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the instance is hot and serving.
    pub(crate) fn is_ready(&self) -> bool {
        self.state == InstanceState::Ready
    }
}

/// Live instances and in-flight tasks of one hosting entry, kept up to date
/// at every launch, release, crash, preemption, submission and completion,
/// so the auto-scaler and the router read them without a scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HostingLoad {
    /// Instances pending, loading or hot.
    active: usize,
    /// Tasks submitted to those instances and not yet finished.
    in_flight: usize,
}

/// Endpoint statistics.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Tasks received from the service.
    pub tasks_received: u64,
    /// Tasks completed successfully.
    pub tasks_completed: u64,
    /// Tasks failed.
    pub tasks_failed: u64,
    /// Instances launched (including restarts).
    pub instances_launched: u64,
    /// Instances released by the idle-timeout policy.
    pub instances_released: u64,
    /// Automatic restarts after failure.
    pub restarts: u64,
    /// Output tokens generated across all instances.
    pub output_tokens: u64,
}

/// Per-model instance/backlog counts, without the owned model name: the
/// `Copy` payload of [`ComputeEndpoint::model_activity`], cheap enough for
/// the router to probe on every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelActivity {
    /// Instances hot and serving.
    pub running: u32,
    /// Instances loading weights.
    pub starting: u32,
    /// Instances waiting for node allocation.
    pub queued: u32,
    /// Tasks waiting at the endpoint for a free slot.
    pub backlog: usize,
}

/// Hosted-model status summary exposed to the gateway's `/jobs` endpoint
/// (§4.3: "running", "starting" or "queued").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStatus {
    /// Model name.
    pub(crate) model: String,
    /// Instances hot and serving.
    pub running: u32,
    /// Instances loading weights.
    pub starting: u32,
    /// Instances waiting for node allocation.
    pub queued: u32,
    /// Tasks waiting at the endpoint for a free slot.
    pub backlog: usize,
}

/// A Globus-Compute-style endpoint bound to one cluster.
#[derive(Debug, Clone)]
pub struct ComputeEndpoint {
    config: EndpointConfig,
    scheduler: BatchScheduler,
    instances: Vec<ModelInstance>,
    /// Per-hosting-entry backlog, indexed like `config.models` (the endpoint's
    /// local model-id space). Replaces a `BTreeMap<String, _>` whose 40-byte
    /// model-name comparisons sat on every advance.
    waiting: Vec<VecDeque<(TaskId, InferenceRequest)>>,
    /// Per-hosting-entry instance and task counts, indexed like `waiting`.
    load: Vec<HostingLoad>,
    results: Vec<TaskResult>,
    offline_until: Option<SimTime>,
    stats: EndpointStats,
    /// Next instant `assign_and_scale` can make progress without new external
    /// input (recomputed after each pass); quiet advances return immediately.
    next_wake: Option<SimTime>,
    /// Forces the next `assign_and_scale` to run a full pass; set by every
    /// external mutation (task received, prewarm, fault injection, …).
    dirty: bool,
    /// Instant of the latest pass: where advancing every backend at every
    /// pass would have left each of them.
    last_pass_at: SimTime,
}

impl ComputeEndpoint {
    /// Create an endpoint managing the given cluster.
    pub fn new(config: EndpointConfig, cluster: Cluster) -> Self {
        ComputeEndpoint {
            waiting: vec![VecDeque::new(); config.models.len()],
            load: vec![HostingLoad::default(); config.models.len()],
            config,
            scheduler: BatchScheduler::new(cluster),
            instances: Vec::new(),
            results: Vec::new(),
            offline_until: None,
            stats: EndpointStats::default(),
            next_wake: None,
            dirty: true,
            last_pass_at: SimTime::ZERO,
        }
    }

    /// Endpoint name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The endpoint configuration.
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Publicly visible status of the underlying cluster.
    pub fn cluster_status(&self) -> ClusterStatus {
        self.scheduler.cluster_status()
    }

    /// Direct access to the batch scheduler (tests and the cold-start bench).
    pub fn scheduler(&self) -> &BatchScheduler {
        &self.scheduler
    }

    /// Mutable access to the batch scheduler (to inject background load).
    pub fn scheduler_mut(&mut self) -> &mut BatchScheduler {
        self.dirty = true;
        &mut self.scheduler
    }

    /// The instances not yet released or crashed — pending, loading or
    /// hot — in launch order.
    pub fn instances(&self) -> &[ModelInstance] {
        &self.instances
    }

    /// Drain completed task results.
    pub(crate) fn take_results(&mut self) -> Vec<TaskResult> {
        std::mem::take(&mut self.results)
    }

    /// Per-model instance/backlog counts without the owned model name — the
    /// allocation-free query the federation router probes on every routing
    /// decision (use [`ComputeEndpoint::model_status`] when the name is
    /// wanted too, e.g. for `/jobs`).
    pub fn model_activity(&self, model: &str) -> ModelActivity {
        match self.config.hosting_index(model) {
            Some(idx) => self.model_activity_at(idx),
            None => ModelActivity::default(),
        }
    }

    /// [`ComputeEndpoint::model_activity`] for a hosting entry already
    /// resolved to its index — the id-based probe the router uses per request.
    pub fn model_activity_at(&self, hosting: usize) -> ModelActivity {
        let mut activity = ModelActivity {
            running: 0,
            starting: 0,
            queued: 0,
            backlog: self.waiting.get(hosting).map(|q| q.len()).unwrap_or(0),
        };
        for inst in self.instances.iter().filter(|i| i.hosting == hosting) {
            match inst.state {
                InstanceState::Ready => activity.running += 1,
                InstanceState::Loading => activity.starting += 1,
                InstanceState::PendingJob => activity.queued += 1,
                _ => {}
            }
        }
        activity
    }

    /// In-flight tasks across this endpoint's instances of one hosting entry
    /// (the least-outstanding router policy's probe).
    pub fn model_in_flight_at(&self, hosting: usize) -> usize {
        self.load.get(hosting).map_or(0, |l| l.in_flight)
    }

    /// Per-model status for the `/jobs` endpoint.
    pub fn model_status(&self, model: &str) -> ModelStatus {
        let activity = self.model_activity(model);
        ModelStatus {
            model: model.to_string(),
            running: activity.running,
            starting: activity.starting,
            queued: activity.queued,
            backlog: activity.backlog,
        }
    }

    /// Status of every hosted model.
    pub fn all_model_statuses(&self) -> Vec<ModelStatus> {
        self.config
            .models
            .iter()
            .map(|m| self.model_status(&m.model.name))
            .collect()
    }

    /// Whether the named model currently has a hot instance.
    pub fn has_hot_instance(&self, model: &str) -> bool {
        self.instances
            .iter()
            .any(|i| i.model == model && i.is_ready())
    }

    /// Receive a task from the cloud service at `now`. `hosting` is the
    /// hosting-entry index of the request's model, as the router resolved it
    /// (see [`EndpointConfig::hosting_index`]). Returns `false` if the
    /// endpoint does not host the model (`hosting` is `None` or out of
    /// range) or cannot serve it; a failed result is produced in that case.
    /// The engine runs the request under the task's id, so each completion
    /// names its task.
    pub(crate) fn receive_task(
        &mut self,
        task: TaskId,
        hosting: Option<u32>,
        mut request: InferenceRequest,
        now: SimTime,
    ) -> bool {
        self.stats.tasks_received += 1;
        if self.is_offline(now) {
            // Network partition / endpoint flap: deliveries fail fast with a
            // retryable error instead of vanishing into a dead process.
            let error = format!("endpoint {} unreachable", self.config.name);
            self.fail_task(task, error, now);
            return false;
        }
        let Some(hosting_idx) = hosting
            .map(|h| h as usize)
            .filter(|&h| h < self.config.models.len())
        else {
            let error = format!(
                "endpoint {} does not host the requested model",
                self.config.name
            );
            self.fail_task(task, error, now);
            return false;
        };
        // Fail fast on misconfiguration: a hosting entry whose per-instance
        // allocation can never be satisfied by this cluster would otherwise
        // leave the task queued forever with no event to wake it.
        let hosting = &self.config.models[hosting_idx];
        if !self.hosting_is_schedulable(hosting) {
            let error = format!(
                "model {} requires {} nodes x {} GPUs, which cluster {} cannot provide",
                hosting.model.name,
                hosting.nodes_per_instance,
                hosting.gpus_per_instance,
                self.config.cluster
            );
            self.fail_task(task, error, now);
            return false;
        }
        request.id = RequestId(task.0);
        self.waiting[hosting_idx].push_back((task, request));
        // React immediately: launch or assign without waiting for the next
        // global advance round.
        self.dirty = true;
        self.assign_and_scale(now);
        true
    }

    /// Pre-warm `count` instances of a model (used by benchmarks that measure
    /// steady-state multi-instance throughput, and by administrators who pin
    /// popular models hot).
    pub fn prewarm(&mut self, model: &str, count: u32, now: SimTime) -> u32 {
        let Some(hosting_idx) = self.config.hosting_index(model) else {
            return 0;
        };
        let hosting = self.config.models[hosting_idx].clone();
        if !self.hosting_is_schedulable(&hosting) {
            return 0;
        }
        let mut launched = 0;
        for _ in 0..count {
            if self.load[hosting_idx].active >= hosting.max_instances as usize {
                break;
            }
            if self.launch_instance(hosting_idx, &hosting, now, true) {
                launched += 1;
            }
        }
        self.dirty = true;
        launched
    }

    /// Simulate a crash of one hot instance of `model` (§3.2.2 fault
    /// tolerance). The instance leaves the instance list (a stable removal,
    /// so the others keep their assignment order) and its in-flight tasks
    /// fail with a retryable error; the process manager restarts the
    /// instance if auto-restart is enabled.
    pub fn inject_instance_failure(&mut self, model: &str, now: SimTime) -> bool {
        let Some(idx) = self
            .instances
            .iter()
            .position(|i| i.model == model && i.is_ready())
        else {
            return false;
        };
        self.dirty = true;
        let ModelInstance {
            in_flight,
            job,
            hosting: hosting_idx,
            ..
        } = self.instances.remove(idx);
        let load = &mut self.load[hosting_idx];
        load.active -= 1;
        load.in_flight -= in_flight.len();
        // The engine that held the requests is gone, so the endpoint cannot
        // re-queue them: it fails them, and the gateway retries idempotent
        // requests.
        for task in in_flight {
            self.fail_task(task, "instance failure", now);
        }
        self.scheduler.complete(job, now);
        // Failed instances are restarted automatically (§3.2.2 "Fault
        // Tolerance").
        let hosting = self.config.models[hosting_idx].clone();
        self.launch_instance(hosting_idx, &hosting, now, false);
        self.stats.restarts += 1;
        true
    }

    /// Take the endpoint off the network until `until` (fault injection:
    /// process flap or partition). Task deliveries inside the window fail
    /// fast; an already-set later recovery instant is kept.
    pub fn set_offline_until(&mut self, until: SimTime) {
        self.offline_until = Some(self.offline_until.map_or(until, |t| t.max(until)));
        self.dirty = true;
    }

    /// Whether the endpoint is unreachable at `now`.
    fn is_offline(&self, now: SimTime) -> bool {
        self.offline_until.map(|t| now < t).unwrap_or(false)
    }

    /// The instant the current (or last) offline window ends, if one was set.
    pub(crate) fn offline_until(&self) -> Option<SimTime> {
        self.offline_until
    }

    /// Crash the compute node backing the first hot instance (fault
    /// injection): the instance fails as in
    /// [`ComputeEndpoint::inject_instance_failure`] and the node goes offline
    /// until restored via [`ComputeEndpoint::restore_node`]. Returns the
    /// crashed node, or `None` when nothing is running.
    pub fn inject_node_crash(&mut self, now: SimTime) -> Option<NodeId> {
        let idx = self.instances.iter().position(|i| i.is_ready())?;
        let model = self.instances[idx].model.clone();
        let job = self.instances[idx].job;
        let node = self
            .scheduler
            .job(job)
            .and_then(|j| j.allocation.nodes().first().copied());
        // Take the node offline before failing the instance so any automatic
        // restart is placed on surviving hardware.
        if let Some(id) = node {
            if let Some(n) = self.scheduler.cluster_mut().node_mut(id) {
                n.offline = true;
            }
        }
        self.inject_instance_failure(&model, now);
        node
    }

    /// Bring a crashed node back online. Returns `false` for unknown nodes.
    pub fn restore_node(&mut self, node: NodeId) -> bool {
        self.dirty = true;
        match self.scheduler.cluster_mut().node_mut(node) {
            Some(n) => {
                n.offline = false;
                true
            }
            None => false,
        }
    }

    /// PBS-preempt the batch job backing the first active instance (fault
    /// injection). The scheduler cancels the job; the instance is released
    /// and its in-flight tasks fail with a retryable error. Returns `false`
    /// when no instance was active.
    pub fn preempt_instance(&mut self, now: SimTime) -> bool {
        let Some(idx) = self.instances.iter().position(|i| {
            matches!(
                i.state,
                InstanceState::PendingJob | InstanceState::Loading | InstanceState::Ready
            )
        }) else {
            return false;
        };
        let job = self.instances[idx].job;
        self.scheduler.cancel(job, now);
        self.dirty = true;
        self.assign_and_scale(now);
        true
    }

    /// Preempt every active instance at once (a full cluster outage).
    /// Returns the number of instances killed.
    pub fn preempt_all_instances(&mut self, now: SimTime) -> usize {
        let jobs: Vec<JobId> = self
            .instances
            .iter()
            .filter(|i| {
                matches!(
                    i.state,
                    InstanceState::PendingJob | InstanceState::Loading | InstanceState::Ready
                )
            })
            .map(|i| i.job)
            .collect();
        for &job in &jobs {
            self.scheduler.cancel(job, now);
        }
        if !jobs.is_empty() {
            self.dirty = true;
            self.assign_and_scale(now);
        }
        jobs.len()
    }

    /// Stall every autoregressive (vLLM) serving engine on the endpoint
    /// from `now` until `until` (fault injection). Embedding backends are
    /// unaffected — the modelled failure is a decode-loop hang. Returns the
    /// number of engines affected.
    pub fn stall_engines(&mut self, now: SimTime, until: SimTime) -> usize {
        self.dirty = true;
        let mut stalled = 0;
        for inst in self.instances.iter_mut() {
            if let Some(InstanceBackend::Vllm(engine)) = inst.backend.as_mut() {
                // Where the last pass left the engine, had it advanced it.
                engine.catch_up(self.last_pass_at);
                engine.stall(now, until);
                stalled += 1;
            }
        }
        stalled
    }

    /// Fail `task` at `at` with `error`, counting it in the endpoint stats.
    fn fail_task(&mut self, task: TaskId, error: impl Into<String>, at: SimTime) {
        self.stats.tasks_failed += 1;
        self.results.push(TaskResult {
            task,
            success: false,
            completion: None,
            error: Some(error.into()),
            finished_at: at,
        });
    }

    /// Whether this cluster can ever satisfy one instance of the hosting
    /// entry (enough nodes, and no node asked for more GPUs than it has).
    fn hosting_is_schedulable(&self, hosting: &ModelHostingConfig) -> bool {
        let cluster = self.scheduler.cluster();
        hosting.gpus_per_instance <= cluster.max_gpus_per_node()
            && hosting.nodes_per_instance <= cluster.node_count()
    }

    fn launch_instance(
        &mut self,
        hosting_idx: usize,
        hosting: &ModelHostingConfig,
        now: SimTime,
        hot: bool,
    ) -> bool {
        let request = JobRequest {
            nodes: hosting.nodes_per_instance,
            gpus_per_node: hosting.gpus_per_instance,
            walltime: JOB_WALLTIME,
            priority: JobPriority::High,
            user: "first-service".to_string(),
        }
        .with_user(format!("endpoint:{}", self.config.name));
        let job = self.scheduler.submit(request, now);
        let started = self
            .scheduler
            .job(job)
            .map(|j| j.state == JobState::Running)
            .unwrap_or(false);
        self.stats.instances_launched += 1;
        let mut instance = ModelInstance {
            model: hosting.model.name.clone(),
            job,
            state: InstanceState::PendingJob,
            hosting: hosting_idx,
            backend: None,
            in_flight: Vec::new(),
            last_active: now,
        };
        if started {
            Self::attach_backend(&self.config, hosting, &mut instance, now, hot);
        }
        self.instances.push(instance);
        self.load[hosting_idx].active += 1;
        true
    }

    fn attach_backend(
        config: &EndpointConfig,
        hosting: &ModelHostingConfig,
        instance: &mut ModelInstance,
        start: SimTime,
        hot: bool,
    ) {
        if hosting.is_embedding() {
            instance.backend = Some(InstanceBackend::Embedding(EmbeddingEngine::default()));
            instance.state = InstanceState::Ready;
        } else {
            let engine_config = hosting.engine_config(config.gpu);
            let engine = Box::new(if hot {
                VllmEngine::hot(engine_config, start)
            } else {
                VllmEngine::cold(engine_config, start)
            });
            instance.state = if hot {
                InstanceState::Ready
            } else {
                InstanceState::Loading
            };
            instance.backend = Some(InstanceBackend::Vllm(engine));
        }
        instance.last_active = start;
    }

    /// Core per-advance work: react to scheduler events, drive the due
    /// backends, collect completions, hand out waiting tasks, auto-scale and
    /// enforce the idle timeout. A second pass runs only when the first made
    /// progress (instance launched, became ready, completions collected,
    /// tasks assigned), so work enabled within one advance is picked up
    /// immediately without paying the full walk twice on the — far more
    /// common — quiet events.
    ///
    /// The second pass stays because what it does is observable. It steps
    /// the engines the first pass fed: an idle engine handed tasks at `now`
    /// runs its admitting step at `now`, so the batch that step admits is
    /// fixed before another delivery at the same instant can join it. And
    /// its auto-scaling step sees the first pass's launches and assignments,
    /// so it may launch a second instance at the same instant. With one pass
    /// both would wait for the endpoint's next wake.
    fn assign_and_scale(&mut self, now: SimTime) {
        // Quiet advance: nothing external changed and no scheduler/engine/idle
        // event is due yet, so a pass could not make progress — skip the walk.
        if !self.dirty && self.next_wake.is_none_or(|t| t > now) {
            return;
        }
        self.last_pass_at = now;
        if self.assign_and_scale_pass(now) {
            self.assign_and_scale_pass(now);
        }
        self.dirty = false;
        self.next_wake = self.compute_next_event_time();
    }

    /// One pass; returns whether any state changed (see `assign_and_scale`).
    fn assign_and_scale_pass(&mut self, now: SimTime) -> bool {
        let mut progress = false;
        let mut released = false;
        // 1. Scheduler events → instance state transitions.
        self.scheduler.advance(now);
        for ev in self.scheduler.take_events() {
            use first_hpc::SchedulerEventKind as K;
            progress = true;
            match ev.kind {
                K::Started => {
                    if let Some(pos) = self
                        .instances
                        .iter()
                        .position(|i| i.job == ev.job && i.state == InstanceState::PendingJob)
                    {
                        if let Some(hosting) =
                            self.config.models.get(self.instances[pos].hosting).cloned()
                        {
                            let config = self.config.clone();
                            Self::attach_backend(
                                &config,
                                &hosting,
                                &mut self.instances[pos],
                                ev.time,
                                false,
                            );
                        }
                    }
                }
                K::TimedOut | K::Cancelled => {
                    let in_flight = match self.instances.iter_mut().find(|i| i.job == ev.job) {
                        Some(inst) if inst.state != InstanceState::Released => {
                            inst.state = InstanceState::Released;
                            inst.backend = None;
                            released = true;
                            let load = &mut self.load[inst.hosting];
                            load.active -= 1;
                            load.in_flight -= inst.in_flight.len();
                            std::mem::take(&mut inst.in_flight)
                        }
                        _ => Vec::new(),
                    };
                    // The batch job died under the instance; its in-flight
                    // tasks can never complete, so fail them with a retryable
                    // error instead of leaving the client hanging.
                    for task in in_flight {
                        self.fail_task(task, "instance job preempted", ev.time);
                    }
                }
                K::Completed => {}
            }
        }

        // 2. Drive the backends that are due and collect their completions.
        //    A backend that is not due would only run pure decode steps,
        //    which change nothing outside it until its next event; it is
        //    caught up before any outside change instead (`catch_up`).
        for inst in self.instances.iter_mut() {
            let Some(backend) = inst.backend.as_mut() else {
                continue;
            };
            if backend.next_event_time().is_none_or(|t| t > now) {
                continue;
            }
            backend.advance(now);
            if let InstanceBackend::Vllm(engine) = backend {
                if inst.state == InstanceState::Loading && engine.state() == EngineState::Ready {
                    inst.state = InstanceState::Ready;
                    inst.last_active = engine.ready_at();
                    progress = true;
                }
            }
            for c in backend.take_completions() {
                progress = true;
                let task = TaskId(c.id.0);
                if let Ok(at) = inst.in_flight.binary_search(&task) {
                    inst.in_flight.remove(at);
                    self.load[inst.hosting].in_flight -= 1;
                }
                inst.last_active = c.finished_at;
                self.stats.tasks_completed += 1;
                self.stats.output_tokens += c.output_tokens as u64;
                self.results.push(TaskResult {
                    task,
                    success: true,
                    finished_at: c.finished_at,
                    completion: Some(c),
                    error: None,
                });
            }
        }

        // 3. Assign waiting tasks to instances with free parallel slots. The
        //    hosting configs are read in place (split field borrows) — this
        //    runs twice per advance, so cloning the config list here used to
        //    be the endpoint's single largest allocation source.
        for (hosting_idx, hosting) in self.config.models.iter().enumerate() {
            let queue = &mut self.waiting[hosting_idx];
            if queue.is_empty() {
                continue;
            }
            // Only hot instances receive work; tasks stay in the endpoint
            // backlog while an instance is still loading so they can drain to
            // whichever instance frees capacity first.
            for inst in self
                .instances
                .iter_mut()
                .filter(|i| i.hosting == hosting_idx && i.backend.is_some())
                .filter(|i| i.state == InstanceState::Ready)
            {
                if inst.in_flight.len() >= hosting.max_parallel_tasks {
                    continue;
                }
                // The first submission ends a vLLM engine's decode window,
                // so the window's steps up to `now`, which step 2 skipped,
                // run first (later submissions find no window left; an
                // embedding engine owes nothing).
                if let Some(InstanceBackend::Vllm(engine)) = inst.backend.as_mut() {
                    engine.catch_up(now);
                }
                while inst.in_flight.len() < hosting.max_parallel_tasks {
                    let Some((task, request)) = queue.pop_front() else {
                        break;
                    };
                    assert!(
                        inst.in_flight.last().is_none_or(|&last| last < task),
                        "tasks reach an instance in ascending id order"
                    );
                    inst.backend
                        .as_mut()
                        .expect("backend present")
                        .submit(request, now);
                    inst.in_flight.push(task);
                    self.load[hosting_idx].in_flight += 1;
                    inst.last_active = now;
                    progress = true;
                }
                if queue.is_empty() {
                    break;
                }
            }
        }

        // 4. Auto-scaling: launch instances when the backlog exceeds what the
        //    active instances can absorb. The counts come from `load`; only
        //    an actual launch (rare) clones its hosting entry.
        for idx in 0..self.config.models.len() {
            let hosting = &self.config.models[idx];
            let backlog = self.waiting[idx].len();
            let HostingLoad { active, in_flight } = self.load[idx];
            let demand = backlog + in_flight;
            let need_first = active == 0 && demand > 0;
            let saturated =
                active > 0 && demand > hosting.scale_up_threshold() * active && backlog > 0;
            if (need_first || saturated) && active < hosting.max_instances as usize {
                let hosting = self.config.models[idx].clone();
                self.launch_instance(idx, &hosting, now, false);
                progress = true;
            }
        }

        // 5. Hot-node management: release instances idle past the timeout.
        for idx in 0..self.instances.len() {
            let (release, job) = {
                let inst = &self.instances[idx];
                if inst.state != InstanceState::Ready || !inst.in_flight.is_empty() {
                    (false, inst.job)
                } else {
                    let backlog = !self.waiting[inst.hosting].is_empty();
                    (
                        !backlog && now.saturating_since(inst.last_active) >= IDLE_TIMEOUT,
                        inst.job,
                    )
                }
            };
            if release {
                let inst = &mut self.instances[idx];
                inst.state = InstanceState::Released;
                inst.backend = None;
                self.load[inst.hosting].active -= 1;
                self.scheduler.complete(job, now);
                self.stats.instances_released += 1;
                progress = true;
                released = true;
            }
        }
        // Released instances are inert; dropping them keeps every later scan
        // to live instances. The retain is stable, so assignment order holds.
        if released {
            self.instances
                .retain(|i| i.state != InstanceState::Released);
        }
        progress
    }

    /// Full scan behind [`SimProcess::next_event_time`]: earliest scheduler
    /// event, engine event or idle-release deadline.
    fn compute_next_event_time(&self) -> Option<SimTime> {
        let engines = self
            .instances
            .iter()
            .filter_map(|i| i.backend.as_ref()?.next_event_time());
        SimProcess::next_event_time(&self.scheduler)
            .into_iter()
            .chain(engines)
            .chain(self.idle_release_deadline())
            .min()
    }

    fn idle_release_deadline(&self) -> Option<SimTime> {
        self.instances
            .iter()
            .filter(|i| i.state == InstanceState::Ready && i.in_flight.is_empty())
            .map(|i| i.last_active + IDLE_TIMEOUT)
            .min()
    }
}

impl SimProcess for ComputeEndpoint {
    fn next_event_time(&self) -> Option<SimTime> {
        // `next_wake` is recomputed after every pass and nothing moves the
        // scheduler, engines or idle deadlines between passes, so a clean
        // endpoint answers from the cache instead of re-scanning.
        if !self.dirty {
            return self.next_wake;
        }
        self.compute_next_event_time()
    }

    fn advance(&mut self, now: SimTime) {
        self.assign_and_scale(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelHostingConfig;
    use first_desim::SimDuration;
    use first_hpc::GpuModel;
    use first_serving::find_model;

    fn endpoint() -> ComputeEndpoint {
        let config = EndpointConfig::new("sophia-endpoint", "sophia", GpuModel::A100_40)
            .host(
                ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
                    .with_max_instances(4),
            )
            .host(ModelHostingConfig::new(
                find_model("nv-embed-v2").unwrap(),
                GpuModel::A100_40,
            ));
        ComputeEndpoint::new(config, Cluster::tiny("sophia", 8, 8))
    }

    fn drive(ep: &mut ComputeEndpoint, until: SimTime) {
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(ep) {
            if t > until {
                break;
            }
            now = t.max(now);
            ep.advance(now);
        }
        ep.advance(until);
    }

    fn chat_req(id: u64) -> InferenceRequest {
        InferenceRequest::chat(id, 220, 150)
    }

    #[test]
    fn infeasible_hosting_fails_tasks_fast_instead_of_hanging() {
        // A Polaris-like 4-GPU-per-node cluster misconfigured with the
        // Sophia-style 1x8-GPU hosting entry for Llama 70B: the allocation can
        // never be satisfied, so tasks must fail immediately with a clear
        // error rather than queue forever.
        let config = EndpointConfig::new("polaris-endpoint", "polaris", GpuModel::A100_40).host(
            ModelHostingConfig::for_node_size(
                find_model("llama-70b").unwrap(),
                GpuModel::A100_40,
                8,
            ),
        );
        let mut ep = ComputeEndpoint::new(config, Cluster::tiny("polaris", 8, 4));
        // Prewarming an infeasible entry launches nothing.
        assert_eq!(
            ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO),
            0
        );
        assert!(!ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::ZERO));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(!results[0].success);
        assert!(results[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("cannot provide"));

        // The properly sized 2x4-GPU entry for the same cluster works.
        let config = EndpointConfig::new("polaris-endpoint", "polaris", GpuModel::A100_40).host(
            ModelHostingConfig::for_node_size(
                find_model("llama-70b").unwrap(),
                GpuModel::A100_40,
                4,
            ),
        );
        let mut ep = ComputeEndpoint::new(config, Cluster::tiny("polaris", 8, 4));
        assert_eq!(
            ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO),
            1
        );
        assert!(ep.receive_task(TaskId(2), Some(0), chat_req(2), SimTime::ZERO));
        drive(&mut ep, SimTime::from_secs(300));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].success);
    }

    #[test]
    fn first_request_triggers_cold_start_and_completes() {
        let mut ep = endpoint();
        assert!(ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::ZERO));
        // The model is not hot: /jobs should say "starting" (node allocated
        // instantly on the empty cluster, weights loading).
        let status = ep.model_status("meta-llama/Llama-3.3-70B-Instruct");
        assert_eq!((status.running, status.starting), (0, 1));
        drive(&mut ep, SimTime::from_secs(600));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].success);
        // Completion happens only after the cold start (~2 min for 70B).
        assert!(results[0].finished_at.as_secs_f64() > 60.0);
        assert!(ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
    }

    #[test]
    fn hot_instance_serves_follow_up_quickly() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        assert!(ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
        ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::from_secs(10));
        drive(&mut ep, SimTime::from_secs(120));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        let latency = results[0].finished_at.as_secs_f64() - 10.0;
        assert!(latency < 10.0, "hot latency {latency}");
    }

    #[test]
    fn unknown_model_fails_immediately() {
        let mut ep = endpoint();
        let req = InferenceRequest::chat(5, 10, 10);
        assert!(!ep.receive_task(TaskId(5), None, req, SimTime::ZERO));
        // An index past the hosting entries is not hosted either.
        assert!(!ep.receive_task(TaskId(6), Some(2), req, SimTime::ZERO));
        let results = ep.take_results();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| !r.success));
        assert!(results[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("does not host the requested model"));
    }

    #[test]
    fn autoscaling_launches_additional_instances_under_load() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        // Far more outstanding work than one instance's scale-up threshold.
        for i in 0..500 {
            ep.receive_task(TaskId(i), Some(0), chat_req(i), SimTime::ZERO);
        }
        ep.advance(SimTime::from_secs(1));
        let model = "meta-llama/Llama-3.3-70B-Instruct";
        let active = ep
            .instances()
            .iter()
            .filter(|i| i.model == model && i.state != InstanceState::Released)
            .count();
        assert!(active >= 2, "expected scale-up, got {active} instances");
        assert!(active <= 4, "must respect max_instances");
    }

    #[test]
    fn idle_timeout_releases_warm_nodes() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::ZERO);
        drive(&mut ep, SimTime::from_secs(300));
        assert_eq!(ep.take_results().len(), 1);
        let busy_gpus_before = ep.cluster_status().total_gpus - ep.cluster_status().free_gpus;
        assert!(busy_gpus_before >= 8);
        // Two hours of idleness later the node is released.
        drive(
            &mut ep,
            SimTime::from_secs(300) + SimDuration::from_hours(3),
        );
        assert!(!ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
        assert_eq!(
            ep.cluster_status().free_gpus,
            ep.cluster_status().total_gpus
        );
        assert!(ep.stats().instances_released >= 1);
    }

    #[test]
    fn released_instances_leave_the_instance_list() {
        let mut ep = endpoint();
        let model = "meta-llama/Llama-3.3-70B-Instruct";
        let live = |ep: &ComputeEndpoint| {
            (ep.stats().instances_launched - ep.stats().instances_released) as usize
        };
        let mut now = SimTime::ZERO;
        for round in 0..4 {
            // Launch two hot instances, serve a request, then sit idle past
            // the timeout so both are released.
            assert_eq!(ep.prewarm(model, 2, now), 2);
            ep.receive_task(TaskId(round), Some(0), chat_req(round), now);
            assert_eq!(ep.instances().len(), live(&ep));
            assert_eq!(ep.instances().len(), 2);
            now += SimDuration::from_hours(3);
            drive(&mut ep, now);
            assert_eq!(ep.take_results().len(), 1);
            assert_eq!(ep.instances().len(), live(&ep));
            assert!(ep.instances().is_empty());
        }
        assert_eq!(ep.stats().instances_released, 8);
        // Job ids keep counting across the churn.
        ep.prewarm(model, 1, now);
        assert_eq!(ep.instances().len(), 1);
        assert_eq!(ep.instances()[0].job.to_string(), "job-9");
        // A preempted instance leaves the list as well.
        assert!(ep.preempt_instance(now));
        assert!(ep.instances().is_empty());
    }

    #[test]
    fn crashed_instances_leave_the_instance_list() {
        let mut ep = endpoint();
        let model = "meta-llama/Llama-3.3-70B-Instruct";
        assert_eq!(ep.prewarm(model, 2, SimTime::ZERO), 2);
        ep.receive_task(TaskId(0), Some(0), chat_req(0), SimTime::ZERO);
        ep.advance(SimTime::from_millis(100));
        assert_eq!(
            ep.instances().iter().map(|i| i.in_flight()).sum::<usize>(),
            1
        );
        // The first hot instance crashes: it leaves the list at once, the
        // survivor keeps its place and the restart is appended after it.
        assert!(ep.inject_instance_failure(model, SimTime::from_secs(1)));
        let jobs: Vec<String> = ep.instances().iter().map(|i| i.job.to_string()).collect();
        assert_eq!(jobs, ["job-2", "job-3"]);
        assert_eq!(ep.stats().restarts, 1);
        // The crash failed the task it held.
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(!results[0].success);
        // A second crash removes the survivor too; only restarts remain.
        assert!(ep.inject_instance_failure(model, SimTime::from_secs(2)));
        let jobs: Vec<String> = ep.instances().iter().map(|i| i.job.to_string()).collect();
        assert_eq!(jobs, ["job-3", "job-4"]);
    }

    #[test]
    fn embedding_model_served_without_cold_start() {
        let mut ep = endpoint();
        ep.receive_task(
            TaskId(9),
            Some(1),
            InferenceRequest::embedding(9, 512),
            SimTime::ZERO,
        );
        drive(&mut ep, SimTime::from_secs(60));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].success);
        assert!(results[0].finished_at.as_secs_f64() < 5.0);
    }

    #[test]
    fn instance_failure_restarts_automatically() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        assert!(
            ep.inject_instance_failure("meta-llama/Llama-3.3-70B-Instruct", SimTime::from_secs(5))
        );
        assert_eq!(ep.stats().restarts, 1);
        // A replacement instance is starting.
        let status = ep.model_status("meta-llama/Llama-3.3-70B-Instruct");
        assert!(status.starting + status.queued >= 1);
        drive(&mut ep, SimTime::from_secs(600));
        assert!(ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
    }

    #[test]
    fn max_parallel_tasks_bounds_in_flight_per_instance() {
        let config = EndpointConfig::new("e", "c", GpuModel::A100_40).host(
            ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
                .with_max_parallel_tasks(4)
                .with_max_instances(1),
        );
        let mut ep = ComputeEndpoint::new(config, Cluster::tiny("c", 2, 8));
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        for i in 0..20 {
            ep.receive_task(TaskId(i), Some(0), chat_req(i), SimTime::ZERO);
        }
        ep.advance(SimTime::from_millis(100));
        let inst = ep
            .instances()
            .iter()
            .find(|i| i.is_ready())
            .expect("hot instance");
        assert!(inst.in_flight() <= 4);
        let status = ep.model_status("meta-llama/Llama-3.3-70B-Instruct");
        assert!(status.backlog >= 16);
    }

    #[test]
    fn cluster_saturation_queues_instances() {
        // One-node cluster: a second instance cannot start until resources free.
        let config = EndpointConfig::new("e", "c", GpuModel::A100_40).host(
            ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
                .with_max_instances(2)
                .with_max_parallel_tasks(2),
        );
        let mut ep = ComputeEndpoint::new(config, Cluster::tiny("c", 1, 8));
        for i in 0..50 {
            ep.receive_task(TaskId(i), Some(0), chat_req(i), SimTime::ZERO);
        }
        ep.advance(SimTime::from_secs(1));
        let status = ep.model_status("meta-llama/Llama-3.3-70B-Instruct");
        assert!(
            status.queued >= 1,
            "second instance should wait for nodes: {status:?}"
        );
    }

    #[test]
    fn offline_endpoint_fails_deliveries_until_recovery() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        ep.set_offline_until(SimTime::from_secs(60));
        assert!(ep.is_offline(SimTime::from_secs(30)));
        assert!(!ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::from_secs(30)));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(!results[0].success);
        assert!(results[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unreachable"));
        // After the window the endpoint serves again.
        assert!(!ep.is_offline(SimTime::from_secs(60)));
        assert!(ep.receive_task(TaskId(2), Some(0), chat_req(2), SimTime::from_secs(60)));
        drive(&mut ep, SimTime::from_secs(300));
        assert!(ep.take_results().iter().any(|r| r.success));
        // An earlier recovery instant never shortens an existing window.
        ep.set_offline_until(SimTime::from_secs(500));
        ep.set_offline_until(SimTime::from_secs(400));
        assert!(ep.is_offline(SimTime::from_secs(450)));
    }

    #[test]
    fn preemption_fails_in_flight_tasks_instead_of_hanging_them() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::ZERO);
        ep.advance(SimTime::from_millis(100));
        assert!(ep.take_results().is_empty(), "task still running");
        assert!(ep.preempt_instance(SimTime::from_secs(1)));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(!results[0].success);
        assert!(results[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("preempted"));
        // Preempting an idle endpoint with no instances reports false.
        let mut empty = endpoint();
        assert!(!empty.preempt_instance(SimTime::ZERO));
    }

    #[test]
    fn preempt_all_kills_every_active_instance() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 2, SimTime::ZERO);
        assert_eq!(ep.preempt_all_instances(SimTime::from_secs(1)), 2);
        assert!(!ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
    }

    #[test]
    fn node_crash_takes_the_node_offline_and_restarts_elsewhere() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        let total = ep.cluster_status().total_nodes;
        let node = ep
            .inject_node_crash(SimTime::from_secs(5))
            .expect("a hot instance was running");
        let status = ep.cluster_status();
        assert_eq!(status.offline_nodes, 1);
        assert_eq!(status.total_nodes, total - 1);
        assert!(ep.stats().restarts >= 1, "auto-restart should fire");
        // The replacement becomes hot on surviving hardware, and the node
        // eventually rejoins.
        drive(&mut ep, SimTime::from_secs(600));
        assert!(ep.has_hot_instance("meta-llama/Llama-3.3-70B-Instruct"));
        assert!(ep.restore_node(node));
        assert_eq!(ep.cluster_status().offline_nodes, 0);
        assert!(!ep.restore_node(NodeId(9999)));
    }

    #[test]
    fn engine_stall_delays_completions() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        ep.receive_task(TaskId(1), Some(0), chat_req(1), SimTime::ZERO);
        ep.advance(SimTime::from_millis(100));
        assert_eq!(
            ep.stall_engines(SimTime::from_millis(100), SimTime::from_secs(200)),
            1
        );
        drive(&mut ep, SimTime::from_secs(600));
        let results = ep.take_results();
        assert_eq!(results.len(), 1);
        assert!(results[0].success);
        assert!(
            results[0].finished_at > SimTime::from_secs(200),
            "completion at {:?} should wait out the stall",
            results[0].finished_at
        );
    }

    /// Deliveries and stalls at a decode-step start inside a fused window:
    /// the step starting at that instant runs first, with the old batch, as
    /// on an engine stepped every token. Each case is compared with the same
    /// run shifted one microsecond later, where no catch-up is needed.
    mod catch_up_call_sites {
        use super::*;

        fn engine(ep: &ComputeEndpoint) -> &VllmEngine {
            ep.instances()
                .iter()
                .find_map(|i| match i.backend.as_ref() {
                    Some(InstanceBackend::Vllm(engine)) => Some(engine.as_ref()),
                    _ => None,
                })
                .expect("a vLLM instance")
        }

        /// Deliver a 40-token and a 400-token task at time zero and advance
        /// at every event until the vLLM engine runs both; the batch is then
        /// in a window that ends with the short task.
        fn a_batch_of_two(ep: &mut ComputeEndpoint) {
            for (id, output) in [(1, 40), (2, 400)] {
                let req = InferenceRequest::chat(id, 220, output);
                ep.receive_task(TaskId(id), Some(0), req, SimTime::ZERO);
            }
            while ep.instances().is_empty() || engine(ep).running_count() < 2 {
                let now = SimProcess::next_event_time(ep).expect("work in flight");
                ep.advance(now);
            }
        }

        /// Start of the step before the engine's window wake: a decode-step
        /// start strictly inside the window, with no pass since it began.
        fn inside_the_window(ep: &ComputeEndpoint) -> SimTime {
            let engine = engine(ep);
            let c = engine.config();
            let batch = engine.running_count();
            let decode = c
                .perf
                .decode_step_time(&c.model, c.gpu, c.tensor_parallel, batch);
            let wake = SimProcess::next_event_time(engine).expect("a window");
            SimTime::from_micros(wake.as_micros() - decode.as_micros())
        }

        fn shifted(t: SimTime, micros: i64) -> SimTime {
            SimTime::from_micros(t.as_micros().saturating_add_signed(micros))
        }

        /// Run the endpoint an hour in; `(task, first token, finish)` of
        /// every completion, by task.
        fn drain(mut ep: ComputeEndpoint) -> Vec<(TaskId, SimTime, SimTime)> {
            drive(&mut ep, SimTime::from_secs(3_600));
            let mut done: Vec<_> = ep
                .take_results()
                .into_iter()
                .filter_map(|r| {
                    r.completion
                        .map(|c| (r.task, c.first_token_at, c.finished_at))
                })
                .collect();
            done.sort_unstable();
            done
        }

        /// Two tasks wait for a cold instance, then a third lands `offset`
        /// microseconds after a step start inside their window.
        fn delivery_run(offset: i64) -> Vec<(TaskId, SimTime, SimTime)> {
            let mut ep = endpoint();
            a_batch_of_two(&mut ep);
            let at = shifted(inside_the_window(&ep), offset);
            ep.receive_task(TaskId(3), Some(0), InferenceRequest::chat(3, 220, 40), at);
            drain(ep)
        }

        #[test]
        fn a_delivery_on_a_window_step_start_joins_the_next_step() {
            let on_step = delivery_run(0);
            assert_eq!(on_step.len(), 3);
            // The two tasks the cold instance found waiting when it turned
            // ready were handed over in one pass, so one step admitted both.
            assert_eq!(on_step[0].1, on_step[1].1, "{on_step:?}");
            assert_eq!(on_step, delivery_run(1));
            // A microsecond earlier, the step at that instant admits it.
            let before = delivery_run(-1);
            assert!(before[2].1 < on_step[2].1, "{before:?} vs {on_step:?}");
        }

        /// A hot instance decodes two tasks; `offset` microseconds after a
        /// step start inside their window an embedding task makes the
        /// endpoint run a pass, and the engines stall from that instant to
        /// a fixed one.
        fn stall_run(offset: i64) -> Vec<(TaskId, SimTime, SimTime)> {
            let mut ep = endpoint();
            ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
            a_batch_of_two(&mut ep);
            let step = inside_the_window(&ep);
            let at = shifted(step, offset);
            // Hosting 1 serves embeddings: the pass leaves the vLLM engine,
            // which is not due, where it is.
            ep.receive_task(TaskId(3), Some(1), InferenceRequest::embedding(3, 512), at);
            let until = step + SimDuration::from_secs(5);
            assert_eq!(ep.stall_engines(at, until), 1);
            let mut done = drain(ep);
            done.retain(|&(task, ..)| task != TaskId(3));
            done
        }

        #[test]
        fn a_stall_on_a_window_step_start_after_a_pass_runs_that_step_first() {
            let on_step = stall_run(0);
            assert_eq!(on_step.len(), 2);
            assert_eq!(on_step, stall_run(1));
            // Without the pass the step waits out the stall: the short task
            // finishes one step later.
            let mut ep = endpoint();
            ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
            a_batch_of_two(&mut ep);
            let step = inside_the_window(&ep);
            ep.stall_engines(step, step + SimDuration::from_secs(5));
            let unpassed = drain(ep);
            assert!(unpassed[0].2 > on_step[0].2, "{unpassed:?} vs {on_step:?}");
        }
    }

    mod load_counters {
        use super::*;
        use proptest::prelude::*;

        const LLAMA: &str = "meta-llama/Llama-3.3-70B-Instruct";
        const EMBED: &str = "nvidia/NV-Embed-v2";

        /// The per-hosting counters must equal a scan of the instance list,
        /// and every instance's in-flight ids must ascend strictly. Plain
        /// `assert!`, so optimized test builds check it too.
        fn assert_load_matches_a_scan(ep: &ComputeEndpoint, op: &str) {
            assert_eq!(ep.load.len(), ep.config.models.len());
            for (hosting, load) in ep.load.iter().enumerate() {
                let of_hosting = || ep.instances().iter().filter(|i| i.hosting == hosting);
                let scan = HostingLoad {
                    active: of_hosting()
                        .filter(|i| i.state != InstanceState::Released)
                        .count(),
                    in_flight: of_hosting().map(|i| i.in_flight()).sum(),
                };
                assert_eq!(*load, scan, "hosting {hosting} after {op}");
                assert_eq!(ep.model_in_flight_at(hosting), scan.in_flight);
            }
            for inst in ep.instances() {
                assert!(
                    inst.in_flight.windows(2).all(|w| w[0] < w[1]),
                    "instance {} holds {:?} after {op}",
                    inst.job,
                    inst.in_flight
                );
            }
        }

        /// Advance at every event up to `until`, checking after each pass.
        fn drive_checked(ep: &mut ComputeEndpoint, now: &mut SimTime, until: SimTime) {
            while let Some(t) = SimProcess::next_event_time(ep).filter(|&t| t <= until) {
                *now = t.max(*now);
                ep.advance(*now);
                assert_load_matches_a_scan(ep, "a pass");
            }
            *now = until;
            ep.advance(until);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random task arrivals, advances, crashes, preemptions and
            /// idle spells: after every operation the per-hosting counts of
            /// active instances and in-flight tasks equal a scan, and each
            /// instance's in-flight ids ascend.
            #[test]
            fn load_counters_match_a_scan_of_the_instances(
                prewarm in 0u32..3,
                ops in collection::vec((0u8..11, 0u64..20_000, 0u8..3), 1..60),
            ) {
                let config = EndpointConfig::new("e", "c", GpuModel::A100_40)
                    .host(
                        ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
                            .with_max_instances(3)
                            .with_max_parallel_tasks(4),
                    )
                    .host(ModelHostingConfig::new(
                        find_model("nv-embed-v2").unwrap(),
                        GpuModel::A100_40,
                    ));
                let mut ep = ComputeEndpoint::new(config, Cluster::tiny("c", 4, 8));
                assert_eq!(ep.config().hosting_index(EMBED), Some(1));
                ep.prewarm(LLAMA, prewarm, SimTime::ZERO);
                assert_load_matches_a_scan(&ep, "prewarm");
                let (mut now, mut task) = (SimTime::ZERO, 0u64);
                let mut crashed = Vec::new();
                for (kind, gap_ms, arg) in ops {
                    now += SimDuration::from_millis(gap_ms);
                    let op = match kind {
                        0..=3 => {
                            task += 1;
                            // Index 2 names no hosting entry: a fail-fast task.
                            let req = if arg == 1 {
                                InferenceRequest::embedding(task, 512)
                            } else {
                                InferenceRequest::chat(task, 220, 40 + 40 * u32::from(kind))
                            };
                            ep.receive_task(TaskId(task), Some(u32::from(arg)), req, now);
                            "receive_task"
                        }
                        4 => {
                            let until = now + SimDuration::from_secs(u64::from(arg) * 20);
                            drive_checked(&mut ep, &mut now, until);
                            "advance"
                        }
                        5 => {
                            ep.inject_instance_failure(if arg == 1 { EMBED } else { LLAMA }, now);
                            "inject_instance_failure"
                        }
                        6 => {
                            crashed.extend(ep.inject_node_crash(now));
                            "inject_node_crash"
                        }
                        7 => {
                            ep.preempt_instance(now);
                            "preempt_instance"
                        }
                        8 => {
                            ep.preempt_all_instances(now);
                            "preempt_all_instances"
                        }
                        9 => {
                            for node in crashed.drain(..) {
                                ep.restore_node(node);
                            }
                            "restore_node"
                        }
                        _ => {
                            // Sit idle past the timeout: hot instances go.
                            let until = now + SimDuration::from_hours(3);
                            drive_checked(&mut ep, &mut now, until);
                            "idle timeout"
                        }
                    };
                    assert_load_matches_a_scan(&ep, op);
                }
                let until = now + SimDuration::from_hours(3);
                drive_checked(&mut ep, &mut now, until);
                assert_load_matches_a_scan(&ep, "the final drive");
                prop_assert_eq!(ep.model_in_flight_at(0) + ep.model_in_flight_at(1), 0);
            }
        }
    }

    #[test]
    fn decode_steps_without_batch_changes_do_not_wake_the_endpoint() {
        let mut ep = endpoint();
        ep.prewarm("meta-llama/Llama-3.3-70B-Instruct", 1, SimTime::ZERO);
        let req = InferenceRequest::chat(1, 220, 200);
        ep.receive_task(TaskId(1), Some(0), req, SimTime::ZERO);
        let mut wakes = 0;
        let mut results = Vec::new();
        while results.is_empty() {
            let t = SimProcess::next_event_time(&ep).expect("the request is in flight");
            ep.advance(t);
            wakes += 1;
            results = ep.take_results();
        }
        assert!(results[0].success);
        assert_eq!(results[0].completion.as_ref().unwrap().output_tokens, 200);
        // Admission and completion are the only batch changes, so the
        // endpoint wakes at most for those two steps, not once per token.
        assert!(wakes <= 2, "{wakes} wakes for one 200-token request");
    }
}
