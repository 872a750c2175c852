//! The "vLLM Direct" serving path: a single-threaded OpenAI-compatible API
//! frontend in front of the engine.
//!
//! The paper's rate-sweep comparison (Figure 3) hinges on the fact that the
//! stock vLLM API server historically processed requests on a single thread
//! (§5.3.1, citing vllm-project issue #12705): at low request rates it adds a
//! small per-request cost, but under sustained high load the serial frontend
//! becomes the bottleneck — requests queue in front of it, median end-to-end
//! latency balloons, and the GPU engine is starved below its potential
//! throughput. FIRST's asynchronous gateway avoids that path, which is why it
//! overtakes direct access beyond ~10 req/s.

use crate::engine::VllmEngine;
use crate::request::{InferenceCompletion, InferenceRequest, RequestId};
use first_desim::{SimDuration, SimProcess, SimTime};
use std::collections::{HashMap, VecDeque};

// The frontend's cost model: ≈170 ms of serial work per request end to
// end, which caps the direct path at roughly 6 req/s, matching the paper's
// 5.8 req/s peak.

/// Serial CPU time to parse, validate and enqueue one incoming request.
const INGEST_COST: SimDuration = SimDuration::from_millis(80);

/// Serial CPU time to collect and marshal one response.
const RESPOND_COST: SimDuration = SimDuration::from_millis(90);

/// A request as observed at the client side of the server (arrival → response).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRequest {
    /// Request identifier.
    pub(crate) id: RequestId,
    /// When the client sent the request.
    pub(crate) arrived_at: SimTime,
    /// When the complete response left the server.
    pub finished_at: SimTime,
    /// Prompt tokens.
    pub(crate) prompt_tokens: u32,
    /// Output tokens.
    pub output_tokens: u32,
}

impl ServedRequest {
    /// Client-observed end-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished_at - self.arrived_at
    }
}

#[derive(Debug, Clone)]
enum FrontendOp {
    Ingest(InferenceRequest),
    Respond(InferenceCompletion),
}

/// The direct-access server: single-threaded frontend + engine.
#[derive(Debug, Clone)]
pub struct DirectServer {
    engine: VllmEngine,
    ingest_queue: VecDeque<InferenceRequest>,
    respond_queue: VecDeque<InferenceCompletion>,
    current_op: Option<(SimTime, FrontendOp)>,
    arrivals: HashMap<u64, SimTime>,
    served: Vec<ServedRequest>,
}

impl DirectServer {
    /// Wrap an engine with the single-threaded frontend.
    pub fn new(engine: VllmEngine) -> Self {
        DirectServer {
            engine,
            ingest_queue: VecDeque::new(),
            respond_queue: VecDeque::new(),
            current_op: None,
            arrivals: HashMap::new(),
            served: Vec::new(),
        }
    }

    /// Client submits a request at `now`.
    pub fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.arrivals.insert(req.id.0, now);
        self.ingest_queue.push_back(req);
        self.maybe_start_op(now);
    }

    /// Requests waiting for the frontend to even look at them.
    fn frontend_backlog(&self) -> usize {
        self.ingest_queue.len() + self.respond_queue.len()
    }

    /// Drain fully served requests.
    pub fn take_served(&mut self) -> Vec<ServedRequest> {
        std::mem::take(&mut self.served)
    }

    /// Whether everything submitted has been fully served.
    pub fn is_drained(&self) -> bool {
        self.ingest_queue.is_empty()
            && self.respond_queue.is_empty()
            && self.current_op.is_none()
            && self.engine.is_idle()
    }

    fn maybe_start_op(&mut self, now: SimTime) {
        if self.current_op.is_some() {
            return;
        }
        // Responses are drained before new ingests, mirroring a server that
        // prioritises finishing in-flight work over accepting new work.
        if let Some(c) = self.respond_queue.pop_front() {
            let done = now + RESPOND_COST;
            self.current_op = Some((done, FrontendOp::Respond(c)));
        } else if let Some(r) = self.ingest_queue.pop_front() {
            let done = now + INGEST_COST;
            self.current_op = Some((done, FrontendOp::Ingest(r)));
        }
    }

    fn next_internal(&self) -> Option<SimTime> {
        let frontend = self.current_op.as_ref().map(|(t, _)| *t);
        let engine = SimProcess::next_event_time(&self.engine);
        match (frontend, engine) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

impl SimProcess for DirectServer {
    fn next_event_time(&self) -> Option<SimTime> {
        self.next_internal()
    }

    fn advance(&mut self, now: SimTime) {
        while let Some(t) = self.next_internal().filter(|&t| t <= now) {
            // Let the engine catch up to t and surface finished generations.
            self.engine.advance(t);
            for c in self.engine.take_completions() {
                self.respond_queue.push_back(c);
            }
            // Complete the frontend op if it is due.
            if let Some((done, _)) = &self.current_op {
                if *done <= t {
                    let (done, op) = self.current_op.take().expect("checked above");
                    match op {
                        FrontendOp::Ingest(req) => {
                            self.engine.enqueue(req, done);
                        }
                        FrontendOp::Respond(c) => {
                            let arrived_at = self.arrivals.remove(&c.id.0).unwrap_or(c.accepted_at);
                            self.served.push(ServedRequest {
                                id: c.id,
                                arrived_at,
                                finished_at: done,
                                prompt_tokens: c.prompt_tokens,
                                output_tokens: c.output_tokens,
                            });
                        }
                    }
                }
            }
            self.maybe_start_op(t);
        }
        // Kernel instrumentation, as in the gateway's advance: every advance
        // is one simulation event, and the frontend backlog is the depth
        // the artifacts track.
        first_desim::stats::kernel::record_event();
        first_desim::stats::kernel::record_queue_depth(self.frontend_backlog());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::model::find_model;
    use first_hpc::GpuModel;

    fn server() -> DirectServer {
        let cfg = EngineConfig::for_model(find_model("llama-70b").unwrap(), GpuModel::A100_40);
        DirectServer::new(VllmEngine::hot(cfg, SimTime::ZERO))
    }

    fn drain(server: &mut DirectServer, horizon: SimTime) -> SimTime {
        let mut now = SimTime::ZERO;
        while let Some(t) = SimProcess::next_event_time(server) {
            if t > horizon {
                break;
            }
            now = t;
            server.advance(now);
            if server.is_drained() {
                break;
            }
        }
        now
    }

    #[test]
    fn low_load_adds_only_small_overhead() {
        let mut s = server();
        s.submit(InferenceRequest::chat(1, 220, 180), SimTime::ZERO);
        drain(&mut s, SimTime::from_secs(3600));
        let served = s.take_served();
        assert_eq!(served.len(), 1);
        let latency = served[0].latency().as_secs_f64();
        // Engine-only latency ≈ 180 tokens / ~70 tok/s ≈ 2.6 s; frontend adds <0.5 s.
        assert!(latency > 2.0 && latency < 4.5, "latency {latency}");
    }

    #[test]
    fn saturating_load_is_frontend_limited() {
        let mut s = server();
        // 300 requests all at t=0: the serial frontend caps throughput near
        // 1/(ingest+respond) ≈ 5.9 req/s.
        for i in 0..300 {
            s.submit(InferenceRequest::chat(i, 220, 180), SimTime::ZERO);
        }
        drain(&mut s, SimTime::from_secs(36000));
        let served = s.take_served();
        assert_eq!(served.len(), 300);
        let makespan = served
            .iter()
            .map(|r| r.finished_at.as_secs_f64())
            .fold(0.0, f64::max);
        let rps = 300.0 / makespan;
        assert!(rps > 4.0 && rps < 7.5, "request throughput {rps}");
        // Median latency is dominated by frontend queueing, far above the
        // single-request latency.
        let mut lat: Vec<f64> = served.iter().map(|r| r.latency().as_secs_f64()).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lat[lat.len() / 2];
        assert!(median > 15.0, "median {median}");
    }

    #[test]
    fn served_requests_preserve_token_counts() {
        let mut s = server();
        s.submit(InferenceRequest::chat(7, 123, 45), SimTime::from_secs(1));
        drain(&mut s, SimTime::from_secs(3600));
        let served = s.take_served();
        assert_eq!(served[0].prompt_tokens, 123);
        assert_eq!(served[0].output_tokens, 45);
        assert_eq!(served[0].arrived_at, SimTime::from_secs(1));
    }
}
