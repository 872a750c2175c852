//! The Globus Compute cloud service (§3.2.1).
//!
//! Receives task submissions from the FIRST gateway (through the Compute SDK),
//! validates them against the registered-function and confidential-client
//! policy, queues them, dispatches each to its target endpoint, and relays
//! results back. The serial dispatcher models the routing capacity the paper
//! identifies as the current scaling limit (§5.3.2), and the deep task queue
//! is what let the Artillery test park >8000 tasks at Globus while the
//! backend caught up (§5.3.1, Optimization 3).

use crate::config::FabricLatencyModel;
use crate::endpoint::ComputeEndpoint;
use crate::task::{
    EndpointId, FunctionId, FunctionRegistry, TaskId, TaskRecord, TaskResult, TaskState,
};
use first_desim::{IdWindow, SimDuration, SimProcess, SimTime};
use first_serving::InferenceRequest;
use std::collections::{HashMap, VecDeque};

/// Errors returned when a submission is rejected outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The function id was never registered by the administrators.
    UnregisteredFunction,
    /// No endpoint with that name exists.
    UnknownEndpoint(String),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::UnregisteredFunction => write!(f, "function is not registered"),
            FabricError::UnknownEndpoint(e) => write!(f, "unknown endpoint '{e}'"),
        }
    }
}

impl std::error::Error for FabricError {}

/// A task between submission and delivery: its id and what only delivery
/// needs, the request and its model's hosting-entry index on the target
/// endpoint (`None` when the endpoint does not host it). The task record
/// holds the rest, and the endpoint keeps the request once delivered.
#[derive(Debug, Clone, Copy)]
struct RoutedTask {
    id: TaskId,
    request: InferenceRequest,
    hosting: Option<u32>,
}

/// Service-level statistics.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Tasks submitted.
    pub submitted: u64,
    /// Tasks dispatched to endpoints.
    pub dispatched: u64,
    /// Tasks whose results were relayed back.
    pub completed: u64,
    /// Tasks that failed.
    pub failed: u64,
    /// Largest dispatch-queue depth observed (the ">8000 tasks queued" metric).
    pub peak_queue_depth: usize,
}

/// The cloud service plus the endpoints it manages.
#[derive(Debug)]
pub struct ComputeService {
    registry: FunctionRegistry,
    latency: FabricLatencyModel,
    endpoints: Vec<ComputeEndpoint>,
    /// Endpoint name → index into `endpoints`, maintained on registration.
    /// The boundary lookup behind [`ComputeService::endpoint_id`]; the hot
    /// paths carry the resulting dense [`EndpointId`] instead of the name.
    endpoint_index: HashMap<String, usize>,
    /// Records of the tasks not yet handed out by `poll_results`, by task id.
    /// Ids are assigned sequentially from 1 by `submit` and retire roughly in
    /// order, so the window is a bounds-checked index that holds only the
    /// span of live tasks instead of one record per task ever submitted.
    tasks: IdWindow<TaskRecord>,
    /// Process-unique instance id plus a counter bumped on every endpoint
    /// registration; together the [`ComputeService::topology_stamp`] consumers
    /// cache routing state against. Clones share the id (their topology is
    /// identical by construction).
    instance_id: u64,
    topology_version: u64,
    /// Tasks accepted, waiting for the serial dispatcher: `(arrival, task)`.
    dispatch_queue: VecDeque<(SimTime, RoutedTask)>,
    dispatcher_free_at: SimTime,
    /// Dispatched tasks in transit to their endpoint: `(deliver_at, task)`,
    /// in strictly increasing `(deliver_at, task id)` order. The serial
    /// dispatcher appends in FIFO order, its finish times never decrease
    /// and the service-to-endpoint hop is constant, so the front is always
    /// the next delivery.
    in_transit: VecDeque<(SimTime, RoutedTask)>,
    /// Results relayed back, ready for the client at the given instant.
    ready_results: Vec<(SimTime, TaskResult)>,
    /// Earliest availability across `ready_results` (same caching; note
    /// this is the unfiltered minimum — `next_event_time` still applies its
    /// `last_advanced` cut-off).
    next_ready_at: Option<SimTime>,
    /// Latest instant the service has been advanced to. Used to avoid
    /// re-announcing result-availability events that have already been
    /// reached (a driver that never polls would otherwise spin forever on
    /// the same timestamp).
    last_advanced: SimTime,
    /// Active network degradation `(extra one-way latency, spike end)`.
    latency_spike: Option<(SimDuration, SimTime)>,
    next_task_id: u64,
    /// Tasks submitted but not yet resolved (completed or failed). Kept as a
    /// counter so `is_drained` stays O(1) instead of walking the task window
    /// once per event-loop iteration.
    unresolved_tasks: usize,
    stats: ServiceStats,
}

impl ComputeService {
    /// Create a service with the standard function registry.
    pub fn new(latency: FabricLatencyModel) -> Self {
        ComputeService {
            instance_id: next_instance_id(),
            topology_version: 0,
            registry: FunctionRegistry::standard(),
            latency,
            endpoints: Vec::new(),
            endpoint_index: HashMap::new(),
            tasks: IdWindow::new(),
            dispatch_queue: VecDeque::new(),
            dispatcher_free_at: SimTime::ZERO,
            in_transit: VecDeque::new(),
            ready_results: Vec::new(),
            next_ready_at: None,
            last_advanced: SimTime::ZERO,
            latency_spike: None,
            next_task_id: 1,
            unresolved_tasks: 0,
            stats: ServiceStats::default(),
        }
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Service statistics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Register an endpoint; returns its index.
    pub fn add_endpoint(&mut self, endpoint: ComputeEndpoint) -> usize {
        let idx = self.endpoints.len();
        self.endpoint_index.insert(endpoint.name().to_string(), idx);
        self.endpoints.push(endpoint);
        self.topology_version += 1;
        idx
    }

    /// An identity stamp for cached routing state: changes whenever the
    /// endpoint set changes, and differs between any two distinct service
    /// values — clones get a fresh instance id, so a clone that later
    /// diverges can never alias the original's stamp.
    pub fn topology_stamp(&self) -> (u64, u64) {
        (self.instance_id, self.topology_version)
    }

    /// Endpoint names, in registration order (the federation registry order).
    pub fn endpoint_names(&self) -> Vec<String> {
        self.endpoints
            .iter()
            .map(|e| e.name().to_string())
            .collect()
    }

    /// Borrow an endpoint by name (indexed: O(1), not a list scan).
    pub fn endpoint(&self, name: &str) -> Option<&ComputeEndpoint> {
        self.endpoint_index.get(name).map(|&i| &self.endpoints[i])
    }

    /// Mutably borrow an endpoint by name (indexed: O(1), not a list scan).
    pub fn endpoint_mut(&mut self, name: &str) -> Option<&mut ComputeEndpoint> {
        self.endpoint_index
            .get(name)
            .map(|&i| &mut self.endpoints[i])
    }

    /// Resolve an endpoint name to its dense id (the boundary step; the hot
    /// paths carry the id from then on).
    pub fn endpoint_id(&self, name: &str) -> Option<EndpointId> {
        self.endpoint_index.get(name).map(|&i| EndpointId(i as u32))
    }

    /// Borrow an endpoint by id.
    #[inline]
    pub fn endpoint_by_id(&self, id: EndpointId) -> Option<&ComputeEndpoint> {
        self.endpoints.get(id.index())
    }

    /// Resolve an endpoint id back to its name (reports, telemetry).
    #[inline]
    pub fn endpoint_name(&self, id: EndpointId) -> Option<&str> {
        self.endpoints.get(id.index()).map(|e| e.name())
    }

    /// All endpoints.
    pub fn endpoints(&self) -> &[ComputeEndpoint] {
        &self.endpoints
    }

    /// Tasks the service still holds a record for: submitted and not yet
    /// handed out by `poll_results`.
    pub fn tracked_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks currently queued at the service (not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.dispatch_queue.len()
    }

    /// Degrade the fabric network until `until` (fault injection): every
    /// submission and result relay pays `extra` on top of the latency model.
    /// Overlapping spikes keep the larger penalty and the later end.
    pub fn inject_latency_spike(&mut self, extra: SimDuration, until: SimTime) {
        self.latency_spike = Some(match self.latency_spike {
            Some((e, u)) => {
                let worst = if extra.as_micros() > e.as_micros() {
                    extra
                } else {
                    e
                };
                (worst, u.max(until))
            }
            None => (extra, until),
        });
    }

    /// Extra latency a network hop starting at `at` pays under the active
    /// spike, if any.
    fn spike_extra(&self, at: SimTime) -> SimDuration {
        match self.latency_spike {
            Some((extra, until)) if at < until => extra,
            _ => SimDuration::ZERO,
        }
    }

    /// Submit a task invoking `function` on `endpoint` for the named model at
    /// `now` (the time the client issued the call; service receipt adds the
    /// client→service hop). The by-name form: both names are resolved here,
    /// once, and the task then travels as [`ComputeService::submit_to`]'s.
    pub fn submit(
        &mut self,
        function: FunctionId,
        endpoint: &str,
        model: &str,
        request: InferenceRequest,
        now: SimTime,
    ) -> Result<TaskId, FabricError> {
        let Some(id) = self.endpoint_id(endpoint) else {
            if !self.registry.is_registered(function) {
                return Err(FabricError::UnregisteredFunction);
            }
            return Err(FabricError::UnknownEndpoint(endpoint.to_string()));
        };
        let hosting = self.endpoints[id.index()]
            .config()
            .hosting_index(model)
            .map(|h| h as u32);
        self.submit_to(function, id, hosting, request, now)
    }

    /// Submit a task to an endpoint already resolved to its dense id, with
    /// the model's hosting-entry index on it (`None`: not hosted, the task
    /// fails at the endpoint) — the per-request path the gateway uses, which
    /// looks up and allocates no name.
    pub fn submit_to(
        &mut self,
        function: FunctionId,
        endpoint: EndpointId,
        hosting: Option<u32>,
        request: InferenceRequest,
        now: SimTime,
    ) -> Result<TaskId, FabricError> {
        if !self.registry.is_registered(function) {
            return Err(FabricError::UnregisteredFunction);
        }
        let ep_idx = endpoint.index();
        if ep_idx >= self.endpoints.len() {
            return Err(FabricError::UnknownEndpoint(format!("#{}", endpoint.0)));
        }
        // Hand-offs are not events, so one may have finished since the last
        // advance: run the dispatcher up to just before `now`, so the queue
        // depth sampled below counts only tasks still waiting to be handed
        // off, as when every hand-off woke the service.
        if let Some(before) = now.as_micros().checked_sub(1) {
            self.pump_dispatcher(SimTime::from_micros(before));
        }
        let id = TaskId(self.next_task_id);
        self.next_task_id += 1;
        let arrival = now + self.latency.client_to_service + self.spike_extra(now);
        self.tasks.insert(
            id.0,
            TaskRecord {
                function,
                endpoint,
                submitted_at: now,
                state: TaskState::QueuedAtService,
                dispatched_at: None,
                delivered_at: None,
                result_available_at: None,
            },
        );
        self.dispatch_queue.push_back((
            arrival,
            RoutedTask {
                id,
                request,
                hosting,
            },
        ));
        self.unresolved_tasks += 1;
        self.stats.submitted += 1;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.dispatch_queue.len());
        Ok(id)
    }

    /// Drain results whose relay reached the client by `now`, each with its
    /// task's record, which the service releases here: once polled, a task
    /// is no longer `ComputeService::task`-visible. A result whose record
    /// was already released (a repeat result for the same task) is dropped.
    pub fn poll_results(&mut self, now: SimTime) -> Vec<(TaskResult, TaskRecord)> {
        let mut out = Vec::new();
        // Cached-minimum early-out: polling is per-advance, readiness is per
        // request, so the common case must not scan the buffer.
        if self.next_ready_at.is_none_or(|t| t > now) {
            return out;
        }
        // One pass: the swap-remove order decides same-instant ties in the
        // gateway's delivery order, and the entries kept give the new
        // minimum.
        let mut next: Option<SimTime> = None;
        let mut i = 0;
        while i < self.ready_results.len() {
            let at = self.ready_results[i].0;
            if at <= now {
                let result = self.ready_results.swap_remove(i).1;
                if let Some(record) = self.tasks.remove(result.task.0) {
                    out.push((result, record));
                }
            } else {
                next = Some(next.map_or(at, |t| t.min(at)));
                i += 1;
            }
        }
        self.next_ready_at = next;
        out
    }

    /// Whether every submitted task has had its result made available.
    pub fn is_drained(&self) -> bool {
        self.dispatch_queue.is_empty() && self.in_transit.is_empty() && self.unresolved_tasks == 0
    }

    fn pump_dispatcher(&mut self, now: SimTime) {
        // Serial dispatcher: one task at a time, each costing dispatch_cost.
        while let Some(&(arrival, _)) = self.dispatch_queue.front() {
            let start = arrival.max(self.dispatcher_free_at);
            if start > now {
                break;
            }
            let done = start + self.latency.service_dispatch_cost;
            if done > now {
                // The dispatch finishes in the future; model it by reserving
                // the dispatcher and handling delivery on a later advance.
                break;
            }
            let (_, task) = self.dispatch_queue.pop_front().expect("front exists");
            self.dispatcher_free_at = done;
            let deliver_at = done + self.latency.service_to_endpoint;
            if let Some(rec) = self.tasks.get_mut(task.id.0) {
                rec.state = TaskState::AtEndpoint;
                rec.dispatched_at = Some(done);
            }
            debug_assert!(
                self.in_transit
                    .back()
                    .is_none_or(|(t, last)| (*t, last.id) < (deliver_at, task.id)),
                "in-transit deliveries are appended in (deliver_at, task id) order"
            );
            self.in_transit.push_back((deliver_at, task));
            self.stats.dispatched += 1;
        }
    }

    fn deliver_due(&mut self, now: SimTime) {
        // Deliver from the front while it is due. A coarse advance can make
        // several deliveries due at once, and the endpoint (whose scheduler
        // asserts monotone time) observes them in (time, task) order, the
        // order `in_transit` keeps.
        while let Some((deliver_at, task)) = self.in_transit.pop_front_if(|(t, _)| *t <= now) {
            let rec = self
                .tasks
                .get_mut(task.id.0)
                .expect("a task in transit is live");
            rec.state = TaskState::Running;
            rec.delivered_at = Some(deliver_at);
            self.endpoints[rec.endpoint.index()].receive_task(
                task.id,
                task.hosting,
                task.request,
                deliver_at,
            );
        }
    }

    fn collect_results(&mut self, _now: SimTime) {
        let return_latency = self.latency.endpoint_to_service + self.latency.service_to_client;
        let mut collected: Vec<(SimTime, TaskResult)> = Vec::new();
        for ep in self.endpoints.iter_mut() {
            let offline_until = ep.offline_until();
            for result in ep.take_results() {
                // A success computed inside a network partition cannot leave
                // the endpoint until the partition heals; its relay starts at
                // the end of the offline window. Delivery *failures* pass
                // through — the cloud service sits outside the partition and
                // observes the broken connection itself.
                let relay_start = match offline_until {
                    Some(until) if result.success && result.finished_at < until => until,
                    _ => result.finished_at,
                };
                collected.push((relay_start, result));
            }
        }
        for (relay_start, result) in collected {
            let available = relay_start + return_latency + self.spike_extra(relay_start);
            if let Some(rec) = self.tasks.get_mut(result.task.0) {
                if !matches!(rec.state, TaskState::Completed | TaskState::Failed) {
                    self.unresolved_tasks = self.unresolved_tasks.saturating_sub(1);
                }
                rec.state = if result.success {
                    TaskState::Completed
                } else {
                    TaskState::Failed
                };
                rec.result_available_at = Some(available);
            }
            if result.success {
                self.stats.completed += 1;
            } else {
                self.stats.failed += 1;
            }
            self.next_ready_at = Some(self.next_ready_at.map_or(available, |t| t.min(available)));
            self.ready_results.push((available, result));
        }
    }

    /// Delivery instant of the dispatch queue's head: its hand-off plus the
    /// service-to-endpoint hop. The hand-off itself changes nothing anyone
    /// observes, so it is not an event: `pump_dispatcher` runs on every
    /// advance and stamps each hand-off at its own instant, whenever it runs.
    fn next_delivery_from_queue(&self) -> Option<SimTime> {
        self.dispatch_queue.front().map(|&(arrival, _)| {
            arrival.max(self.dispatcher_free_at)
                + self.latency.service_dispatch_cost
                + self.latency.service_to_endpoint
        })
    }
}

fn next_instance_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

impl Clone for ComputeService {
    /// Clones carry a fresh instance id: a clone that later diverges (each
    /// side adding its own endpoints) must never alias the original's
    /// [`ComputeService::topology_stamp`], or cached routing state resolved
    /// against one would be reused against the other.
    fn clone(&self) -> Self {
        ComputeService {
            instance_id: next_instance_id(),
            topology_version: self.topology_version,
            registry: self.registry.clone(),
            latency: self.latency.clone(),
            endpoints: self.endpoints.clone(),
            endpoint_index: self.endpoint_index.clone(),
            tasks: self.tasks.clone(),
            dispatch_queue: self.dispatch_queue.clone(),
            dispatcher_free_at: self.dispatcher_free_at,
            in_transit: self.in_transit.clone(),
            ready_results: self.ready_results.clone(),
            next_ready_at: self.next_ready_at,
            last_advanced: self.last_advanced,
            latency_spike: self.latency_spike,
            next_task_id: self.next_task_id,
            unresolved_tasks: self.unresolved_tasks,
            stats: self.stats.clone(),
        }
    }
}

impl SimProcess for ComputeService {
    fn next_event_time(&self) -> Option<SimTime> {
        let mut next = self.next_delivery_from_queue();
        if let Some(&(t, _)) = self.in_transit.front() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        // Only announce availability instants that have not been reached
        // yet; results already available stay retrievable via
        // `poll_results` but are no longer events. The cached minimum
        // answers the common case (everything ready is in the future); a
        // stale minimum — results left unpolled past their instant — falls
        // back to the filtered scan.
        match self.next_ready_at {
            Some(t) if t > self.last_advanced => {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
            Some(_) => {
                for &(t, _) in &self.ready_results {
                    if t > self.last_advanced {
                        next = Some(next.map_or(t, |n| n.min(t)));
                    }
                }
            }
            None => {}
        }
        for ep in &self.endpoints {
            if let Some(t) = SimProcess::next_event_time(ep) {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        }
        next
    }

    fn advance(&mut self, now: SimTime) {
        self.pump_dispatcher(now);
        self.deliver_due(now);
        for ep in self.endpoints.iter_mut() {
            ep.advance(now);
        }
        self.collect_results(now);
        self.last_advanced = self.last_advanced.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EndpointConfig, ModelHostingConfig};
    use first_hpc::{Cluster, GpuModel};
    use first_serving::find_model;

    impl ComputeService {
        /// A task's record while the service still holds it.
        fn task(&self, id: TaskId) -> Option<&TaskRecord> {
            self.tasks.get(id.0)
        }
    }

    const MODEL: &str = "meta-llama/Llama-3.3-70B-Instruct";

    fn service_with_endpoint(prewarm: u32) -> ComputeService {
        let config = EndpointConfig::new("sophia-endpoint", "sophia", GpuModel::A100_40).host(
            ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40)
                .with_max_instances(4),
        );
        let mut ep = ComputeEndpoint::new(config, Cluster::tiny("sophia", 8, 8));
        if prewarm > 0 {
            ep.prewarm(MODEL, prewarm, SimTime::ZERO);
        }
        let mut svc = ComputeService::new(FabricLatencyModel::default());
        svc.add_endpoint(ep);
        svc
    }

    fn inference_fn(svc: &ComputeService) -> FunctionId {
        svc.registry()
            .find_by_name("run_vllm_inference")
            .unwrap()
            .id
    }

    fn drive(svc: &mut ComputeService, until: SimTime) {
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(svc) {
            if t > until {
                break;
            }
            now = t.max(now);
            svc.advance(now);
            if svc.is_drained() {
                break;
            }
        }
        svc.advance(until);
    }

    #[test]
    fn a_queued_task_and_its_record_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<TaskRecord>(), 72);
        assert_eq!(std::mem::size_of::<(SimTime, RoutedTask)>(), 48);
    }

    #[test]
    fn task_round_trip_through_hot_endpoint() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        let id = svc
            .submit(
                f,
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(1, 220, 150),
                SimTime::ZERO,
            )
            .unwrap();
        drive(&mut svc, SimTime::from_secs(300));
        let results = svc.poll_results(SimTime::from_secs(300));
        assert_eq!(results.len(), 1);
        let (result, rec) = &results[0];
        assert!(result.success);
        assert_eq!(result.task, id);
        assert_eq!(rec.state, TaskState::Completed);
        // Latency includes the fabric overhead (~5–6 s) plus engine time.
        let latency = (rec.result_available_at.unwrap() - rec.submitted_at).as_secs_f64();
        assert!(latency > 5.0 && latency < 20.0, "latency {latency}");
    }

    #[test]
    fn unregistered_function_is_rejected() {
        let mut svc = service_with_endpoint(1);
        let err = svc
            .submit(
                FunctionId(999),
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(1, 10, 10),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, FabricError::UnregisteredFunction);
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        let err = svc
            .submit(
                f,
                "nowhere",
                MODEL,
                InferenceRequest::chat(1, 10, 10),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, FabricError::UnknownEndpoint(_)));
    }

    #[test]
    fn dispatcher_caps_routing_throughput() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        // 400 requests at t=0: dispatch alone takes 400 × 40 ms = 16 s.
        for i in 0..400 {
            svc.submit(
                f,
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(i, 100, 50),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(svc.queue_depth(), 400);
        assert_eq!(svc.stats().peak_queue_depth, 400);
        drive(&mut svc, SimTime::from_secs(3600));
        assert!(svc.is_drained());
        let results = svc.poll_results(SimTime::from_secs(3600));
        assert_eq!(results.len(), 400);
        // Last dispatch cannot have happened before 400/25 = 16 s.
        let makespan = results
            .iter()
            .map(|(r, _)| r.finished_at.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(makespan > 16.0);
    }

    #[test]
    fn deep_queue_absorbs_sustained_bursts() {
        // The Artillery observation: thousands of tasks can sit queued at the
        // service without being dropped.
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        for i in 0..9000 {
            svc.submit(
                f,
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(i, 50, 20),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert!(svc.stats().peak_queue_depth > 8000);
        // Nothing is lost: every record exists and is in a live state.
        assert_eq!(svc.stats().submitted, 9000);
    }

    #[test]
    fn results_only_visible_after_relay_latency() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        svc.submit(
            f,
            "sophia-endpoint",
            MODEL,
            InferenceRequest::chat(1, 100, 50),
            SimTime::ZERO,
        )
        .unwrap();
        drive(&mut svc, SimTime::from_secs(120));
        let available = svc.task(TaskId(1)).unwrap().result_available_at.unwrap();
        // Polling before availability returns nothing (the instant before it
        // is no earlier than the finish, asserted below).
        let just_before = SimTime::from_micros(available.as_micros() - 1);
        assert!(svc.poll_results(just_before).is_empty());
        let results = svc.poll_results(available);
        assert_eq!(results.len(), 1);
        let (result, rec) = &results[0];
        let finished = result.finished_at;
        assert_eq!(rec.result_available_at, Some(available));
        assert!(available > finished);
    }

    #[test]
    fn polling_a_result_releases_its_task_record() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        let id = svc
            .submit(
                f,
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(1, 100, 50),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(svc.task(id).unwrap().state, TaskState::QueuedAtService);
        drive(&mut svc, SimTime::from_secs(120));
        assert!(svc.is_drained());
        // Resolved but not yet polled: the record is still there.
        assert_eq!(svc.task(id).unwrap().state, TaskState::Completed);
        assert_eq!(svc.tracked_tasks(), 1);
        let results = svc.poll_results(SimTime::from_secs(120));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0.task, id);
        assert!(svc.task(id).is_none());
        assert_eq!(svc.tracked_tasks(), 0);
    }

    #[test]
    fn partition_holds_back_successes_until_it_heals() {
        let mut svc = service_with_endpoint(1);
        let f = inference_fn(&svc);
        // A long generation (~90 s of decode) so the task is still running
        // when the partition starts.
        svc.submit(
            f,
            "sophia-endpoint",
            MODEL,
            InferenceRequest::chat(1, 100, 2000),
            SimTime::ZERO,
        )
        .unwrap();
        // Let the task reach the engine, then partition the endpoint until
        // long after the decode will have finished.
        drive(&mut svc, SimTime::from_secs(4));
        let heal_at = SimTime::from_secs(120);
        svc.endpoint_mut("sophia-endpoint")
            .unwrap()
            .set_offline_until(heal_at);
        drive(&mut svc, SimTime::from_secs(300));
        let results = svc.poll_results(SimTime::from_secs(300));
        let (result, rec) = &results[0];
        assert!(result.success);
        assert!(
            result.finished_at < heal_at,
            "decode finished inside the partition"
        );
        // The success only reaches the client after the partition heals plus
        // the normal relay latency.
        assert!(rec.result_available_at.unwrap() > heal_at);
    }

    #[test]
    fn deliveries_follow_task_order_across_latency_spikes() {
        // The in-transit buffer is a FIFO: delivery times must never fall
        // as task ids rise, even when a latency spike switching on and off
        // makes later submissions reach the service before earlier ones.
        for dispatch_cost in [SimDuration::ZERO, SimDuration::from_millis(40)] {
            let mut svc = ComputeService::new(FabricLatencyModel {
                service_dispatch_cost: dispatch_cost,
                ..FabricLatencyModel::default()
            });
            for name in ["sophia-endpoint", "polaris-endpoint"] {
                let config = EndpointConfig::new(name, "sophia", GpuModel::A100_40).host(
                    ModelHostingConfig::new(find_model("llama-70b").unwrap(), GpuModel::A100_40),
                );
                let mut ep = ComputeEndpoint::new(config, Cluster::tiny("sophia", 8, 8));
                ep.prewarm(MODEL, 1, SimTime::ZERO);
                svc.add_endpoint(ep);
            }
            let f = inference_fn(&svc);
            const TASKS: u64 = 40;
            for k in 0..TASKS {
                let now = SimTime::from_millis(150 * k);
                drive(&mut svc, now);
                if k % 10 == 3 {
                    svc.inject_latency_spike(
                        SimDuration::from_secs(3),
                        now + SimDuration::from_millis(400),
                    );
                }
                let endpoint = if k % 2 == 0 {
                    "sophia-endpoint"
                } else {
                    "polaris-endpoint"
                };
                svc.submit(f, endpoint, MODEL, InferenceRequest::chat(k, 100, 20), now)
                    .unwrap();
            }
            drive(&mut svc, SimTime::from_secs(600));
            let delivered: Vec<SimTime> = (1..=TASKS)
                .map(|id| svc.task(TaskId(id)).unwrap().delivered_at.unwrap())
                .collect();
            assert!(
                delivered.windows(2).all(|w| w[0] <= w[1]),
                "cost {dispatch_cost:?}: deliveries out of task order: {delivered:?}"
            );
        }
    }

    #[test]
    fn hand_offs_are_not_events() {
        // Ten tasks queue at t=0 for a serial dispatcher (40 ms each, then a
        // 2.2 s hop). The endpoint does not host the model, so each task
        // fails on delivery and the (cold) endpoint has no events of its
        // own: the service must wake only for deliveries and results, never
        // for a hand-off, and still stamp every hand-off at its own instant.
        let mut svc = service_with_endpoint(0);
        let latency = svc.latency.clone();
        assert_eq!(latency.service_dispatch_cost, SimDuration::from_millis(40));
        assert_eq!(latency.service_to_endpoint, SimDuration::from_millis(2200));
        let f = inference_fn(&svc);
        const TASKS: u64 = 10;
        for k in 0..TASKS {
            let req = InferenceRequest::chat(k, 100, 20);
            svc.submit(f, "sophia-endpoint", "not-hosted", req, SimTime::ZERO)
                .unwrap();
        }
        let mut announced = Vec::new();
        while let Some(t) = SimProcess::next_event_time(&svc) {
            assert!(announced.len() < 100, "the service keeps announcing {t:?}");
            announced.push(t);
            svc.advance(t);
        }
        assert!(svc.is_drained());
        let (mut deliveries, mut results) = (Vec::new(), Vec::new());
        for k in 0..TASKS {
            let rec = svc.task(TaskId(k + 1)).unwrap();
            assert_eq!(rec.state, TaskState::Failed);
            // Serial dispatcher: the k-th hand-off ends k + 1 dispatch costs
            // after the tasks reach the service.
            let handed_off = SimTime::ZERO
                + latency.client_to_service
                + SimDuration::from_micros(latency.service_dispatch_cost.as_micros() * (k + 1));
            assert_eq!(rec.dispatched_at, Some(handed_off));
            assert_eq!(
                rec.delivered_at,
                Some(handed_off + latency.service_to_endpoint)
            );
            deliveries.push(rec.delivered_at.unwrap());
            results.push(rec.result_available_at.unwrap());
        }
        for t in &announced {
            assert!(
                deliveries.contains(t) || results.contains(t),
                "{t:?} is neither a delivery nor a result instant"
            );
        }
        // Every delivery was announced, so each reached the endpoint at its
        // own instant.
        assert!(deliveries.iter().all(|d| announced.contains(d)));
    }

    #[test]
    fn latency_spike_slows_submissions_inside_the_window() {
        let run = |spike: Option<(SimDuration, SimTime)>| {
            let mut svc = service_with_endpoint(1);
            if let Some((extra, until)) = spike {
                svc.inject_latency_spike(extra, until);
            }
            let f = inference_fn(&svc);
            svc.submit(
                f,
                "sophia-endpoint",
                MODEL,
                InferenceRequest::chat(1, 100, 50),
                SimTime::ZERO,
            )
            .unwrap();
            drive(&mut svc, SimTime::from_secs(600));
            svc.task(TaskId(1)).unwrap().result_available_at.unwrap()
        };
        let clean = run(None);
        let spiked = run(Some((SimDuration::from_secs(2), SimTime::from_secs(300))));
        // Both the submit hop and the result relay pay the extra 2 s.
        let delta = (spiked - clean).as_secs_f64();
        assert!(delta > 3.9, "spike added only {delta}s");
        // A spike that already ended adds nothing.
        let expired = run(Some((SimDuration::from_secs(2), SimTime::ZERO)));
        assert_eq!(expired, clean);
    }
}
