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

// The operating point reported in §5.3.3: ≈6.7 req/s sustained and ≈2 s
// median latency for ShareGPT-length outputs.

/// Requests-per-minute limit enforced service-side.
const RPM_LIMIT: u64 = 400;

/// Interval between admissions implied by the RPM limit.
const ADMISSION_INTERVAL: SimDuration = SimDuration::from_micros(60_000_000 / RPM_LIMIT);

/// Fixed per-request latency (network + scheduling + prefill).
const BASE_LATENCY: SimDuration = SimDuration::from_millis(600);

/// Additional time per generated output token (streaming generation).
const PER_OUTPUT_TOKEN: SimDuration = SimDuration::from_micros(7_700);

/// The external cloud API endpoint; [`CloudApi::default`] is an idle one.
#[derive(Debug, Clone, Default)]
pub struct CloudApi {
    /// Earliest time the next request may be admitted (token-bucket cursor).
    next_admission: SimTime,
    pending: VecDeque<(InferenceRequest, SimTime)>,
    in_flight: Vec<(SimTime, InferenceRequest, SimTime)>,
    completions: Vec<InferenceCompletion>,
}

impl CloudApi {
    /// Submit a request at `now`.
    pub fn submit(&mut self, req: InferenceRequest, now: SimTime) {
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

    /// Admit as many pending requests as the rate limiter allows at `now`.
    fn pump(&mut self, now: SimTime) {
        while let Some((_, _arrival)) = self.pending.front() {
            let admit_at = self.next_admission.max(now);
            if admit_at > now {
                break;
            }
            let (req, arrival) = self.pending.pop_front().expect("front exists");
            let finish =
                admit_at + BASE_LATENCY + PER_OUTPUT_TOKEN.mul_f64(req.output_tokens as f64);
            self.in_flight.push((finish, req, arrival));
            self.next_admission = admit_at + ADMISSION_INTERVAL;
        }
    }

    fn finish_due(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (finish, req, arrival) = self.in_flight.swap_remove(i);
                self.completions.push(InferenceCompletion {
                    id: req.id,
                    accepted_at: arrival,
                    first_token_at: arrival + BASE_LATENCY,
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
        let mut api = CloudApi::default();
        api.submit(InferenceRequest::chat(1, 220, 180), SimTime::ZERO);
        run_all(&mut api, SimTime::from_secs(60));
        let c = api.take_completions();
        assert_eq!(c.len(), 1);
        let latency = c[0].engine_latency().as_secs_f64();
        assert!(latency > 1.0 && latency < 3.0, "latency {latency}");
    }

    #[test]
    fn sustained_throughput_is_rate_limited() {
        let mut api = CloudApi::default();
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
        // Equal-length requests finish exactly one admission interval
        // apart: the limiter delayed every request after the first.
        let mut finishes: Vec<SimTime> = completions.iter().map(|c| c.finished_at).collect();
        finishes.sort_unstable();
        assert!(finishes
            .windows(2)
            .all(|w| w[1] - w[0] == SimDuration::from_millis(150)));
    }

    #[test]
    fn token_throughput_tracks_rate_limit() {
        let mut api = CloudApi::default();
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
        let mut api = CloudApi::default();
        api.submit(InferenceRequest::chat(1, 100, 50), SimTime::from_secs(10));
        run_all(&mut api, SimTime::from_secs(60));
        // Admitted on arrival: the latency is the service's own, 0.6 s plus
        // 50 tokens at 7.7 ms.
        let c = api.take_completions();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].finished_at, SimTime::from_micros(10_985_000));
    }
}
