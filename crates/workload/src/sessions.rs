//! WebUI session workload (Table 1, §5.3.4).
//!
//! The WebUI benchmark simulates N concurrent chat sessions per model. Each
//! session behaves as a closed loop: send a message, wait for the full
//! response, think briefly, send the next message. This module generates the
//! per-session behaviour; the gateway crate's WebUI layer drives it through
//! the full serving path.

use crate::sharegpt::{ConversationSample, ShareGptGenerator, ShareGptProfile};
use first_desim::{SimDuration, SimRng, SimTime};

/// Interval over which a cell's sessions start (staggered logins).
const RAMP_UP: SimDuration = SimDuration::from_secs(5);

/// Configuration of one WebUI concurrency benchmark cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionWorkloadConfig {
    /// Target model.
    pub model: String,
    /// Number of concurrent sessions.
    pub concurrency: usize,
    /// Measurement window length (60 s and 120 s in Table 1).
    pub duration: SimDuration,
    /// Mean user think time between a response and the next message.
    pub mean_think_time: SimDuration,
    /// Conversation length profile.
    pub profile: ShareGptProfile,
}

impl SessionWorkloadConfig {
    /// A Table 1 cell with the paper's axes: model × concurrency × duration.
    pub fn table1(model: &str, concurrency: usize, duration_secs: u64) -> Self {
        SessionWorkloadConfig {
            model: model.to_string(),
            concurrency,
            duration: SimDuration::from_secs(duration_secs),
            mean_think_time: SimDuration::from_secs(3),
            profile: ShareGptProfile {
                // Chat turns through the WebUI are shorter than full ShareGPT
                // conversations.
                prompt_mean: 120.0,
                output_mean: 140.0,
                ..ShareGptProfile::default()
            },
        }
    }
}

/// One simulated WebUI session.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// When the session connects and sends its first message.
    pub start_at: SimTime,
    /// Pre-drawn conversation turns (lengths) the session will send in order.
    pub turns: Vec<ConversationSample>,
    /// Pre-drawn think times between turns.
    pub(crate) think_times: Vec<SimDuration>,
}

impl SessionPlan {
    /// Think time before sending turn `i + 1` (after receiving response `i`).
    pub fn think_before(&self, next_turn: usize) -> SimDuration {
        self.think_times
            .get(next_turn.saturating_sub(1))
            .copied()
            .unwrap_or(SimDuration::from_secs(3))
    }
}

/// Generate the session plans for one benchmark cell.
pub fn generate_sessions(config: &SessionWorkloadConfig, seed: u64) -> Vec<SessionPlan> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5E55_1011);
    let mut gen = ShareGptGenerator::with_profile(config.profile.clone(), seed ^ 0x7EA7);
    let max_turns_per_session = {
        // Enough turns that no session runs dry within the window even if the
        // system were infinitely fast (response time ≥ ~1 s assumed).
        let per_turn_floor = 1.0 + config.mean_think_time.as_secs_f64();
        ((config.duration.as_secs_f64() / per_turn_floor).ceil() as usize + 4).max(8)
    };
    (0..config.concurrency)
        .map(|session_id| {
            let offset = if config.concurrency <= 1 {
                SimDuration::ZERO
            } else {
                RAMP_UP.mul_f64(session_id as f64 / config.concurrency as f64)
            };
            let turns = gen.samples(max_turns_per_session);
            let think_times = (0..max_turns_per_session)
                .map(|_| {
                    SimDuration::from_secs_f64(
                        rng.exponential(config.mean_think_time.as_secs_f64()),
                    )
                })
                .collect();
            SessionPlan {
                start_at: SimTime::ZERO + offset,
                turns,
                think_times,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_concurrency() {
        let cfg = SessionWorkloadConfig::table1("llama-8b", 300, 60);
        let sessions = generate_sessions(&cfg, 1);
        assert_eq!(sessions.len(), 300);
        for s in &sessions {
            assert!(!s.turns.is_empty());
            assert_eq!(s.turns.len(), s.think_times.len());
        }
    }

    #[test]
    fn ramp_up_staggers_starts_within_bound() {
        let cfg = SessionWorkloadConfig::table1("llama-8b", 100, 60);
        let sessions = generate_sessions(&cfg, 2);
        assert_eq!(sessions[0].start_at, SimTime::ZERO);
        let last = sessions.last().unwrap().start_at;
        assert!(last <= SimTime::ZERO + RAMP_UP);
        assert!(last > SimTime::ZERO);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let cfg = SessionWorkloadConfig::table1("gemma-27b", 50, 120);
        let a = generate_sessions(&cfg, 9);
        let b = generate_sessions(&cfg, 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[10].turns, b[10].turns);
    }

    #[test]
    fn enough_turns_to_cover_the_window() {
        let cfg = SessionWorkloadConfig::table1("llama-70b", 10, 120);
        let sessions = generate_sessions(&cfg, 3);
        // At least window / (think floor) turns available.
        assert!(sessions[0].turns.len() >= 120 / 4);
    }

    #[test]
    fn think_before_is_total_function() {
        let cfg = SessionWorkloadConfig::table1("llama-8b", 1, 60);
        let s = &generate_sessions(&cfg, 4)[0];
        // Indices past the pre-drawn list fall back to a default.
        assert!(s.think_before(10_000) > SimDuration::ZERO);
    }
}
