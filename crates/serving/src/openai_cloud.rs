//! External commercial cloud API comparator (Figure 5).
//!
//! The paper benchmarks FIRST against the OpenAI API serving GPT-4o-mini: the
//! cloud service delivers low per-request latency (≈2 s median) but its
//! service-side rate limiting caps sustained request throughput (≈6.7 req/s in
//! the paper's runs). This module models exactly those two behaviours: a
//! token-bucket admission limiter in front of an effectively unbounded,
//! low-latency serving pool.

use crate::request::{InferenceCompletion, InferenceRequest};
use first_desim::{SimDuration, SimProcess, SimTime};
use std::collections::VecDeque;

/// Cloud API behaviour parameters.
#[derive(Debug, Clone)]
pub struct CloudApiConfig {
    /// Requests-per-minute limit enforced service-side.
    pub(crate) rpm_limit: f64,
    /// Fixed per-request latency (network + scheduling + prefill).
    pub(crate) base_latency: SimDuration,
    /// Additional time per generated output token (streaming generation).
    pub(crate) per_output_token: SimDuration,
}

impl Default for CloudApiConfig {
    fn default() -> Self {
        CloudApiConfig {
            // ≈6.7 req/s sustained, ≈2 s median latency for ShareGPT-length
            // outputs — the operating point reported in §5.3.3.
            rpm_limit: 400.0,
            base_latency: SimDuration::from_millis(600),
            per_output_token: SimDuration::from_micros(7_700),
        }
    }
}

/// Statistics for a cloud API run.
#[derive(Debug, Clone, Default)]
pub(crate) struct CloudApiStats {
    /// Requests accepted (all of them — the limiter delays, it does not drop).
    pub(crate) accepted: u64,
    /// Requests completed.
    pub(crate) completed: u64,
    /// Output tokens generated.
    pub(crate) output_tokens: u64,
    /// Requests that were delayed by the rate limiter.
    pub(crate) throttled: u64,
}

/// The external cloud API endpoint.
#[derive(Debug, Clone)]
pub struct CloudApi {
    config: CloudApiConfig,
    /// Earliest time the next request may be admitted (token-bucket cursor).
    next_admission: SimTime,
    pending: VecDeque<(InferenceRequest, SimTime)>,
    in_flight: Vec<(SimTime, InferenceRequest, SimTime)>,
    completions: Vec<InferenceCompletion>,
    stats: CloudApiStats,
}

impl CloudApi {
    /// Create a cloud API with the given behaviour.
    pub fn new(config: CloudApiConfig) -> Self {
        CloudApi {
            config,
            next_admission: SimTime::ZERO,
            pending: VecDeque::new(),
            in_flight: Vec::new(),
            completions: Vec::new(),
            stats: CloudApiStats::default(),
        }
    }

    /// Submit a request at `now`.
    pub fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.stats.accepted += 1;
        self.pending.push_back((req, now));
        self.pump(now);
    }

    /// Drain finished completions.
    pub fn take_completions(&mut self) -> Vec<InferenceCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Whether all submitted requests have completed.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.in_flight.is_empty()
    }

    /// Interval between admissions implied by the RPM limit.
    fn admission_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.config.rpm_limit.max(1e-6))
    }

    /// Admit as many pending requests as the rate limiter allows at `now`.
    fn pump(&mut self, now: SimTime) {
        while let Some((_, _arrival)) = self.pending.front() {
            let admit_at = self.next_admission.max(now);
            if admit_at > now {
                break;
            }
            let (req, arrival) = self.pending.pop_front().expect("front exists");
            if admit_at > arrival {
                self.stats.throttled += 1;
            }
            let finish = admit_at
                + self.config.base_latency
                + self
                    .config
                    .per_output_token
                    .mul_f64(req.output_tokens as f64);
            self.in_flight.push((finish, req, arrival));
            self.next_admission = admit_at + self.admission_interval();
        }
    }

    fn finish_due(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (finish, req, arrival) = self.in_flight.swap_remove(i);
                self.stats.completed += 1;
                self.stats.output_tokens += req.output_tokens as u64;
                self.completions.push(InferenceCompletion {
                    id: req.id,
                    accepted_at: arrival,
                    first_token_at: arrival + self.config.base_latency,
                    finished_at: finish,
                    prompt_tokens: req.prompt_tokens,
                    output_tokens: req.output_tokens,
                });
            } else {
                i += 1;
            }
        }
    }
}

impl SimProcess for CloudApi {
    fn next_event_time(&self) -> Option<SimTime> {
        let next_finish = self.in_flight.iter().map(|(t, _, _)| *t).min();
        let next_admit = if self.pending.is_empty() {
            None
        } else {
            Some(self.next_admission)
        };
        match (next_finish, next_admit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn advance(&mut self, now: SimTime) {
        self.pump(now);
        self.finish_due(now);
        // Kernel instrumentation: every advance is one simulation event.
        first_desim::stats::kernel::record_event();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(api: &mut CloudApi, horizon: SimTime) {
        while let Some(t) = SimProcess::next_event_time(api) {
            if t > horizon {
                break;
            }
            api.advance(t);
            if api.is_drained() {
                break;
            }
        }
    }

    #[test]
    fn single_request_has_low_latency() {
        let mut api = CloudApi::new(CloudApiConfig::default());
        api.submit(InferenceRequest::chat(1, 220, 180), SimTime::ZERO);
        run_all(&mut api, SimTime::from_secs(60));
        let c = api.take_completions();
        assert_eq!(c.len(), 1);
        let latency = c[0].engine_latency().as_secs_f64();
        assert!(latency > 1.0 && latency < 3.0, "latency {latency}");
    }

    #[test]
    fn sustained_throughput_is_rate_limited() {
        let mut api = CloudApi::new(CloudApiConfig::default());
        for i in 0..1000 {
            api.submit(InferenceRequest::chat(i, 220, 180), SimTime::ZERO);
        }
        run_all(&mut api, SimTime::from_secs(3600));
        assert!(api.is_drained());
        let completions = api.take_completions();
        let makespan = completions
            .iter()
            .map(|c| c.finished_at.as_secs_f64())
            .fold(0.0, f64::max);
        let rps = 1000.0 / makespan;
        // 400 RPM ≈ 6.7 req/s.
        assert!(rps > 6.0 && rps < 7.2, "rps {rps}");
        assert!(api.stats.throttled > 900);
    }

    #[test]
    fn token_throughput_tracks_rate_limit() {
        let mut api = CloudApi::new(CloudApiConfig::default());
        for i in 0..600 {
            api.submit(InferenceRequest::chat(i, 220, 180), SimTime::ZERO);
        }
        run_all(&mut api, SimTime::from_secs(3600));
        let completions = api.take_completions();
        let makespan = completions
            .iter()
            .map(|c| c.finished_at.as_secs_f64())
            .fold(0.0, f64::max);
        let tok_s = completions
            .iter()
            .map(|c| c.output_tokens as f64)
            .sum::<f64>()
            / makespan;
        // Paper reports ≈1199 tok/s for the OpenAI API under this workload.
        assert!(tok_s > 900.0 && tok_s < 1500.0, "tok/s {tok_s}");
    }

    #[test]
    fn unthrottled_request_is_not_counted_as_throttled() {
        let mut api = CloudApi::new(CloudApiConfig::default());
        api.submit(InferenceRequest::chat(1, 100, 50), SimTime::from_secs(10));
        run_all(&mut api, SimTime::from_secs(60));
        assert_eq!(api.stats.throttled, 0);
        assert_eq!(api.stats.completed, 1);
    }
}
