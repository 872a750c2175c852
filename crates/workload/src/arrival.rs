//! Request arrival processes (§5.2.2).
//!
//! The paper's benchmarks offer requests at fixed rates (1, 5, 10, 20 req/s),
//! at an "infinite" rate (everything sent up front to saturate the server),
//! or as a sustained load-test stream (Artillery: 100 req/s for 300 s).
//! The scenario-matrix workloads add three non-stationary shapes on top:
//! on/off bursts, a diurnal sinusoid and a two-state Markov-modulated
//! Poisson process (MMPP).

use first_desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One request of a recorded replay track: the exact arrival time, model
/// and token lengths a cassette captured for one tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayEntry {
    /// Recorded arrival time at the gateway.
    pub at: SimTime,
    /// Recorded target model.
    pub model: String,
    /// Recorded prompt length in tokens.
    pub prompt_tokens: u32,
    /// Recorded output length in tokens.
    pub output_tokens: u32,
}

/// A recorded per-tenant request track, replayed verbatim by
/// [`ArrivalProcess::Replay`]. A track from a cassette is time-sorted
/// (cassette validation checks the merge order), but a hand-built one need
/// not be: a scenario replays any track in stable time order, keeping each
/// entry's position as its sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayTrack {
    /// Recorded requests, normally in arrival order.
    pub entries: Vec<ReplayEntry>,
}

/// How request arrival times are generated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// All requests arrive at time zero ("infinite" request rate).
    Infinite,
    /// Deterministic fixed spacing at the given requests/second.
    FixedRate(f64),
    /// Poisson arrivals with the given mean requests/second.
    Poisson(f64),
    /// On/off bursts on a deterministic cadence: each `period_s` window opens
    /// with `burst_s` seconds of Poisson arrivals at `burst_rate` req/s and
    /// then relaxes to `base_rate` for the remainder (the "everyone hits
    /// submit after the seminar" shape).
    Bursty {
        /// Steady background rate between bursts, req/s.
        base_rate: f64,
        /// Rate during the burst window, req/s.
        burst_rate: f64,
        /// Full cycle length in seconds.
        period_s: f64,
        /// Burst length at the start of each cycle, in seconds.
        burst_s: f64,
    },
    /// Non-homogeneous Poisson with a sinusoidal day/night rate:
    /// `rate(t) = mean_rate * (1 + amplitude * sin(2πt / period_s))`,
    /// sampled by Lewis–Shedler thinning.
    Diurnal {
        /// Time-average rate, req/s.
        mean_rate: f64,
        /// Relative swing in `[0, 1]`: 0 is flat, 1 swings to zero at night.
        amplitude: f64,
        /// Cycle length in seconds (86 400 for a literal day).
        period_s: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponentially-distributed
    /// dwell times alternate between a calm and a surge state, each with its
    /// own Poisson rate — the classic model for flash-crowd traffic.
    Mmpp {
        /// Arrival rate in the calm state, req/s.
        calm_rate: f64,
        /// Arrival rate in the surge state, req/s.
        surge_rate: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the surge state, seconds.
        mean_surge_s: f64,
    },
    /// Verbatim replay of a recorded track (cassette playback): arrival
    /// times come straight from the recording, ignoring the RNG entirely,
    /// so a replayed stream is identical under any seed.
    Replay(ReplayTrack),
}

impl ArrivalProcess {
    /// Generate `n` arrival times starting at `start`.
    ///
    /// A non-stationary shape whose time-average [`offered_rate`] is zero or
    /// negative (a degenerate or hand-edited spec) yields an **empty**
    /// stream rather than hanging in search of an arrival that can never
    /// occur.
    ///
    /// [`offered_rate`]: ArrivalProcess::offered_rate
    pub fn arrivals(&self, n: usize, start: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
        let mut cursor = ArrivalCursor::new(n, start);
        std::iter::from_fn(|| cursor.next(self, rng)).collect()
    }

    /// The nominal offered rate in requests/second (`None` for infinite).
    /// Non-stationary shapes report their time-average rate.
    pub fn offered_rate(&self) -> Option<f64> {
        match *self {
            ArrivalProcess::Infinite => None,
            ArrivalProcess::FixedRate(r) | ArrivalProcess::Poisson(r) => Some(r),
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                period_s,
                burst_s,
            } => {
                let period = period_s.max(1e-6);
                let burst_len = burst_s.clamp(0.0, period);
                Some((burst_rate * burst_len + base_rate * (period - burst_len)) / period)
            }
            ArrivalProcess::Diurnal { mean_rate, .. } => Some(mean_rate),
            ArrivalProcess::Mmpp {
                calm_rate,
                surge_rate,
                mean_calm_s,
                mean_surge_s,
            } => {
                let calm = mean_calm_s.max(1e-6);
                let surge = mean_surge_s.max(1e-6);
                Some((calm_rate * calm + surge_rate * surge) / (calm + surge))
            }
            ArrivalProcess::Replay(ref track) => {
                // The empirical rate of the recording: n arrivals over the
                // recorded span (an empty or single-entry track offers 0).
                let span = track
                    .entries
                    .last()
                    .map(|e| e.at.as_secs_f64())
                    .unwrap_or(0.0);
                if span > 0.0 {
                    Some(track.entries.len() as f64 / span)
                } else {
                    Some(0.0)
                }
            }
        }
    }

    /// Human-readable label used in benchmark tables ("1", "5", "inf", ...).
    pub fn label(&self) -> String {
        match *self {
            ArrivalProcess::Infinite => "inf".to_string(),
            ArrivalProcess::FixedRate(r) | ArrivalProcess::Poisson(r) => {
                if (r.fract()).abs() < 1e-9 {
                    format!("{}", r as u64)
                } else {
                    format!("{r:.1}")
                }
            }
            ArrivalProcess::Bursty { .. } => "bursty".to_string(),
            ArrivalProcess::Diurnal { .. } => "diurnal".to_string(),
            ArrivalProcess::Mmpp { .. } => "mmpp".to_string(),
            ArrivalProcess::Replay(..) => "replay".to_string(),
        }
    }
}

/// The lazy form of [`ArrivalProcess::arrivals`]: the same `n` times, one
/// per [`ArrivalCursor::next`] call, drawn from the caller's RNG in the same
/// order as the whole vector would be, so a scenario can stream a tenant's
/// arrivals instead of holding them.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalCursor {
    n: usize,
    emitted: usize,
    start: SimTime,
    /// Poisson: the next arrival instant.
    next_at: SimTime,
    /// Thinning: seconds since `start` of the last candidate. MMPP: start
    /// of the current dwell.
    t: f64,
    /// MMPP: the current state (0 calm, 1 surge), the current dwell's
    /// length (`None` before it is drawn) and the next candidate offset.
    state: usize,
    dwell: Option<f64>,
    u: f64,
}

impl ArrivalCursor {
    pub(crate) fn new(n: usize, start: SimTime) -> Self {
        ArrivalCursor {
            n,
            emitted: 0,
            start,
            next_at: start,
            t: 0.0,
            state: 0,
            dwell: None,
            u: 0.0,
        }
    }

    /// The next arrival of `process`, drawing from `rng`; `None` once `n`
    /// are out. The caller passes the same process and RNG on every call.
    pub(crate) fn next(&mut self, process: &ArrivalProcess, rng: &mut SimRng) -> Option<SimTime> {
        if self.emitted >= self.n {
            return None;
        }
        let i = self.emitted;
        let at = match *process {
            ArrivalProcess::Infinite => self.start,
            ArrivalProcess::FixedRate(rps) => {
                let gap = SimDuration::from_secs_f64(1.0 / rps.max(1e-9));
                self.start + gap.mul_f64(i as f64)
            }
            ArrivalProcess::Poisson(rps) => {
                let at = self.next_at;
                self.next_at += SimDuration::from_secs_f64(rng.exponential(1.0 / rps.max(1e-9)));
                at
            }
            // A spec whose time-average rate is zero (both phase rates zero,
            // or a zero-length burst over a zero floor) offers no traffic:
            // end the stream instead of spinning in the thinning loop
            // waiting for an arrival that never comes.
            ArrivalProcess::Bursty { .. }
            | ArrivalProcess::Diurnal { .. }
            | ArrivalProcess::Mmpp { .. }
                if process.offered_rate().unwrap_or(0.0) <= 0.0 =>
            {
                return None
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                period_s,
                burst_s,
            } => {
                let period = period_s.max(1e-6);
                let burst_len = burst_s.clamp(0.0, period);
                let peak = base_rate.max(burst_rate).max(1e-9);
                self.thinned(rng, peak, |t| {
                    if t % period < burst_len {
                        burst_rate
                    } else {
                        base_rate
                    }
                })
            }
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                period_s,
            } => {
                let amp = amplitude.clamp(0.0, 1.0);
                let period = period_s.max(1e-6);
                let peak = (mean_rate * (1.0 + amp)).max(1e-9);
                self.thinned(rng, peak, |t| {
                    mean_rate * (1.0 + amp * (2.0 * std::f64::consts::PI * t / period).sin())
                })
            }
            ArrivalProcess::Mmpp {
                calm_rate,
                surge_rate,
                mean_calm_s,
                mean_surge_s,
            } => {
                let rates = [calm_rate.max(1e-9), surge_rate.max(1e-9)];
                let dwells = [mean_calm_s.max(1e-6), mean_surge_s.max(1e-6)];
                loop {
                    // Dwell in the current state; arrivals within the dwell
                    // window are a truncated Poisson stream (memorylessness
                    // makes restarting at the phase boundary exact).
                    let dwell = match self.dwell {
                        Some(dwell) => dwell,
                        None => {
                            let dwell = rng.exponential(dwells[self.state]).max(1e-6);
                            self.u = self.t + rng.exponential(1.0 / rates[self.state]);
                            *self.dwell.insert(dwell)
                        }
                    };
                    if self.u < self.t + dwell {
                        let at = self.start + SimDuration::from_secs_f64(self.u);
                        self.u += rng.exponential(1.0 / rates[self.state]);
                        break at;
                    }
                    self.t += dwell;
                    self.state = 1 - self.state;
                    self.dwell = None;
                }
            }
            ArrivalProcess::Replay(ref track) => {
                let entry = track.entries.get(i)?;
                self.start + (entry.at - SimTime::ZERO)
            }
        };
        self.emitted += 1;
        Some(at)
    }

    /// Lewis–Shedler thinning: draw candidate arrivals from a homogeneous
    /// Poisson process at `peak_rate` and accept each candidate at
    /// `rate(t) / peak_rate`. `t` is seconds since `start`. Exact for any
    /// rate function bounded by `peak_rate`, and deterministic for a fixed
    /// RNG stream.
    fn thinned(&mut self, rng: &mut SimRng, peak_rate: f64, rate: impl Fn(f64) -> f64) -> SimTime {
        loop {
            self.t += rng.exponential(1.0 / peak_rate);
            if rng.uniform01() < (rate(self.t) / peak_rate).clamp(0.0, 1.0) {
                return self.start + SimDuration::from_secs_f64(self.t);
            }
        }
    }
}

/// A sustained open-loop load test: `rate` req/s for `duration` (the
/// Artillery configuration from Optimization 3 in §5.3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainedLoad {
    /// Offered request rate, requests/second.
    pub rate: f64,
    /// Length of the load phase.
    pub(crate) duration: SimDuration,
}

impl SustainedLoad {
    /// The Artillery benchmark from the paper: 100 req/s for 300 s.
    pub fn artillery() -> Self {
        SustainedLoad {
            rate: 100.0,
            duration: SimDuration::from_secs(300),
        }
    }

    /// Total number of requests offered.
    pub fn total_requests(&self) -> usize {
        (self.rate * self.duration.as_secs_f64()).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_rate_sends_everything_at_start() {
        let mut rng = SimRng::seed_from_u64(1);
        let arr = ArrivalProcess::Infinite.arrivals(100, SimTime::from_secs(5), &mut rng);
        assert_eq!(arr.len(), 100);
        assert!(arr.iter().all(|&t| t == SimTime::from_secs(5)));
    }

    #[test]
    fn fixed_rate_is_evenly_spaced() {
        let mut rng = SimRng::seed_from_u64(1);
        let arr = ArrivalProcess::FixedRate(10.0).arrivals(50, SimTime::ZERO, &mut rng);
        assert_eq!(arr[0], SimTime::ZERO);
        assert_eq!(arr[10], SimTime::from_secs(1));
        assert_eq!(arr[49], SimTime::from_millis(4900));
    }

    #[test]
    fn poisson_rate_matches_mean() {
        let mut rng = SimRng::seed_from_u64(2);
        let n = 20_000;
        let arr = ArrivalProcess::Poisson(20.0).arrivals(n, SimTime::ZERO, &mut rng);
        let span = arr.last().unwrap().as_secs_f64();
        let rate = (n - 1) as f64 / span;
        assert!((rate - 20.0).abs() / 20.0 < 0.05, "rate {rate}");
        // Arrivals are monotone non-decreasing.
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn labels_match_paper_figure_axes() {
        assert_eq!(ArrivalProcess::FixedRate(1.0).label(), "1");
        assert_eq!(ArrivalProcess::FixedRate(20.0).label(), "20");
        assert_eq!(ArrivalProcess::Infinite.label(), "inf");
        assert_eq!(ArrivalProcess::Poisson(2.5).label(), "2.5");
    }

    #[test]
    fn artillery_profile_matches_optimization_3() {
        let load = SustainedLoad::artillery();
        assert_eq!(load.total_requests(), 30_000);
    }

    #[test]
    fn offered_rate_accessor() {
        assert_eq!(ArrivalProcess::Infinite.offered_rate(), None);
        assert_eq!(ArrivalProcess::FixedRate(5.0).offered_rate(), Some(5.0));
    }

    fn empirical_rate(arr: &[SimTime]) -> f64 {
        let span = (arr.last().unwrap().as_secs_f64() - arr[0].as_secs_f64()).max(1e-9);
        (arr.len() - 1) as f64 / span
    }

    #[test]
    fn bursty_average_rate_matches_offered_rate() {
        let process = ArrivalProcess::Bursty {
            base_rate: 2.0,
            burst_rate: 30.0,
            period_s: 60.0,
            burst_s: 10.0,
        };
        let offered = process.offered_rate().unwrap();
        assert!((offered - (30.0 * 10.0 + 2.0 * 50.0) / 60.0).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(11);
        let arr = process.arrivals(20_000, SimTime::ZERO, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let rate = empirical_rate(&arr);
        assert!((rate - offered).abs() / offered < 0.10, "rate {rate}");
    }

    #[test]
    fn bursty_concentrates_arrivals_in_the_burst_window() {
        let process = ArrivalProcess::Bursty {
            base_rate: 1.0,
            burst_rate: 40.0,
            period_s: 100.0,
            burst_s: 10.0,
        };
        let mut rng = SimRng::seed_from_u64(12);
        let arr = process.arrivals(5_000, SimTime::ZERO, &mut rng);
        let in_burst = arr
            .iter()
            .filter(|t| t.as_secs_f64() % 100.0 < 10.0)
            .count();
        // 40 r/s over 10% of the cycle vs 1 r/s over the rest: ~82% of
        // arrivals land in the burst window.
        assert!(
            in_burst as f64 / arr.len() as f64 > 0.6,
            "burst fraction {}",
            in_burst as f64 / arr.len() as f64
        );
    }

    #[test]
    fn diurnal_mean_rate_matches_and_swings() {
        let process = ArrivalProcess::Diurnal {
            mean_rate: 10.0,
            amplitude: 0.8,
            period_s: 120.0,
        };
        let mut rng = SimRng::seed_from_u64(13);
        let arr = process.arrivals(30_000, SimTime::ZERO, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        let rate = empirical_rate(&arr);
        assert!((rate - 10.0).abs() / 10.0 < 0.10, "rate {rate}");
        // Peak half-cycles carry visibly more arrivals than trough ones.
        let peak = arr
            .iter()
            .filter(|t| t.as_secs_f64() % 120.0 < 60.0)
            .count();
        assert!(peak * 2 > arr.len() * 11 / 10, "peak count {peak}");
    }

    #[test]
    fn mmpp_average_rate_matches_stationary_mix() {
        let process = ArrivalProcess::Mmpp {
            calm_rate: 2.0,
            surge_rate: 25.0,
            mean_calm_s: 90.0,
            mean_surge_s: 30.0,
        };
        let offered = process.offered_rate().unwrap();
        assert!((offered - (2.0 * 90.0 + 25.0 * 30.0) / 120.0).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(14);
        let arr = process.arrivals(40_000, SimTime::ZERO, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        let rate = empirical_rate(&arr);
        // Dwell-time randomness makes MMPP converge slower than the thinned
        // shapes; a 15% band at n=40k is still a real check on the mix.
        assert!((rate - offered).abs() / offered < 0.15, "rate {rate}");
    }

    #[test]
    fn new_shapes_are_seed_deterministic() {
        for process in [
            ArrivalProcess::Bursty {
                base_rate: 1.0,
                burst_rate: 10.0,
                period_s: 30.0,
                burst_s: 5.0,
            },
            ArrivalProcess::Diurnal {
                mean_rate: 5.0,
                amplitude: 0.5,
                period_s: 60.0,
            },
            ArrivalProcess::Mmpp {
                calm_rate: 1.0,
                surge_rate: 8.0,
                mean_calm_s: 40.0,
                mean_surge_s: 15.0,
            },
        ] {
            let a = process.arrivals(500, SimTime::ZERO, &mut SimRng::seed_from_u64(9));
            let b = process.arrivals(500, SimTime::ZERO, &mut SimRng::seed_from_u64(9));
            assert_eq!(a, b, "{}", process.label());
        }
    }

    #[test]
    fn zero_rate_shapes_yield_empty_streams_instead_of_hanging() {
        for process in [
            ArrivalProcess::Bursty {
                base_rate: 0.0,
                burst_rate: 0.0,
                period_s: 60.0,
                burst_s: 10.0,
            },
            // Zero-length burst over a zero floor: the duty-cycle average
            // is zero even though burst_rate is not.
            ArrivalProcess::Bursty {
                base_rate: 0.0,
                burst_rate: 25.0,
                period_s: 60.0,
                burst_s: 0.0,
            },
            ArrivalProcess::Diurnal {
                mean_rate: 0.0,
                amplitude: 0.5,
                period_s: 60.0,
            },
            ArrivalProcess::Mmpp {
                calm_rate: 0.0,
                surge_rate: 0.0,
                mean_calm_s: 30.0,
                mean_surge_s: 30.0,
            },
        ] {
            let mut rng = SimRng::seed_from_u64(1);
            assert!(
                process.arrivals(50, SimTime::ZERO, &mut rng).is_empty(),
                "{}",
                process.label()
            );
        }
        // One dead state is fine: the surge phases still carry the traffic.
        let half_dead = ArrivalProcess::Mmpp {
            calm_rate: 0.0,
            surge_rate: 10.0,
            mean_calm_s: 5.0,
            mean_surge_s: 20.0,
        };
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(half_dead.arrivals(50, SimTime::ZERO, &mut rng).len(), 50);
    }

    #[test]
    fn replay_returns_the_recorded_times_verbatim() {
        let track = ReplayTrack {
            entries: [0.5, 1.25, 4.0]
                .iter()
                .map(|&s| ReplayEntry {
                    at: SimTime::from_secs_f64(s),
                    model: "m".to_string(),
                    prompt_tokens: 10,
                    output_tokens: 20,
                })
                .collect(),
        };
        let process = ArrivalProcess::Replay(track);
        // The RNG is ignored: different seeds give the same stream.
        let a = process.arrivals(3, SimTime::ZERO, &mut SimRng::seed_from_u64(1));
        let b = process.arrivals(3, SimTime::ZERO, &mut SimRng::seed_from_u64(999));
        assert_eq!(a, b);
        assert_eq!(a[0], SimTime::from_secs_f64(0.5));
        assert_eq!(a[2], SimTime::from_secs_f64(4.0));
        // Asking for more than recorded yields the whole (short) track; a
        // start offset shifts every arrival.
        assert_eq!(
            process
                .arrivals(10, SimTime::ZERO, &mut SimRng::seed_from_u64(1))
                .len(),
            3
        );
        let shifted = process.arrivals(3, SimTime::from_secs(100), &mut SimRng::seed_from_u64(1));
        assert_eq!(shifted[0], SimTime::from_secs_f64(100.5));
        assert_eq!(process.label(), "replay");
        // Empirical offered rate: 3 arrivals over 4 s.
        assert!((process.offered_rate().unwrap() - 0.75).abs() < 1e-9);
        let empty = ArrivalProcess::Replay(ReplayTrack {
            entries: Vec::new(),
        });
        assert_eq!(empty.offered_rate(), Some(0.0));
        assert!(empty
            .arrivals(5, SimTime::ZERO, &mut SimRng::seed_from_u64(1))
            .is_empty());
    }

    #[test]
    fn new_shape_labels() {
        assert_eq!(
            ArrivalProcess::Bursty {
                base_rate: 1.0,
                burst_rate: 2.0,
                period_s: 10.0,
                burst_s: 1.0
            }
            .label(),
            "bursty"
        );
        assert_eq!(
            ArrivalProcess::Diurnal {
                mean_rate: 1.0,
                amplitude: 0.1,
                period_s: 10.0
            }
            .label(),
            "diurnal"
        );
        assert_eq!(
            ArrivalProcess::Mmpp {
                calm_rate: 1.0,
                surge_rate: 2.0,
                mean_calm_s: 5.0,
                mean_surge_s: 5.0
            }
            .label(),
            "mmpp"
        );
    }
}
