//! Request arrival processes (paper §6.1, Table 3).
//!
//! Inference jobs receive requests from an open-loop arrival process:
//! Poisson (event-driven applications), uniform (fixed-rate sensors), or the
//! Apollo autonomous-driving trace from the DISB benchmark. Training jobs
//! submit iterations in a closed loop. The Apollo trace itself is proprietary
//! to DISB; we synthesize an equivalent bursty process: a fixed-rate camera
//! pipeline with timing jitter plus periodic multi-camera bursts, which
//! preserves the property the paper exercises (clustered arrivals that stress
//! tail latency more than Poisson).

use orion_desim::rng::DetRng;
use orion_desim::time::SimTime;

use crate::model::ModelKind;

/// Highest arrival rate a schedule honours: one request per nanosecond, the
/// clock's resolution. Faster rates are clamped to it, so no schedule ever
/// steps by a zero gap.
const MAX_RPS: f64 = 1e9;

/// The rate a schedule draws from: `None` (no arrivals) unless the rate is
/// positive and finite, clamped to [`MAX_RPS`].
fn usable_rate(rps: f64) -> Option<f64> {
    (rps.is_finite() && rps > 0.0).then(|| rps.min(MAX_RPS))
}

/// An inference request arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given mean requests/second.
    Poisson {
        /// Mean arrival rate.
        rps: f64,
    },
    /// Uniform (fixed-interval) arrivals.
    Uniform {
        /// Arrival rate; the inter-arrival gap is exactly `1/rps`.
        rps: f64,
    },
    /// Synthetic Apollo-like autonomous-driving trace: jittered periodic
    /// arrivals with multi-camera bursts.
    Apollo {
        /// Mean arrival rate of the synthesized trace.
        mean_rps: f64,
    },
    /// Closed loop: the next request is issued when the previous completes
    /// (training jobs, offline inference).
    ClosedLoop,
    /// Closed loop with host-side think time between requests (e.g. an LLM
    /// decode loop spending time in sampling/detokenization per token).
    ClosedLoopThink {
        /// Host time between a completion and the next request.
        think: SimTime,
    },
    /// Explicit timestamps (for replaying recorded traces).
    Trace(Vec<SimTime>),
}

impl ArrivalProcess {
    /// True when requests are issued back-to-back rather than by timestamps.
    pub fn is_closed_loop(&self) -> bool {
        matches!(
            self,
            ArrivalProcess::ClosedLoop | ArrivalProcess::ClosedLoopThink { .. }
        )
    }

    /// Host-side think time between closed-loop requests (zero by default).
    pub fn think_time(&self) -> SimTime {
        match self {
            ArrivalProcess::ClosedLoopThink { think } => *think,
            _ => SimTime::ZERO,
        }
    }

    /// Generates the arrival timestamps within `[0, horizon)`.
    ///
    /// Returns an empty schedule for [`ArrivalProcess::ClosedLoop`] and for
    /// a rate that is not positive and finite.
    pub fn schedule(&self, horizon: SimTime, rng: &mut DetRng) -> Vec<SimTime> {
        match self {
            ArrivalProcess::ClosedLoop | ArrivalProcess::ClosedLoopThink { .. } => Vec::new(),
            ArrivalProcess::Trace(ts) => {
                ts.iter().copied().filter(|&t| t < horizon).collect()
            }
            ArrivalProcess::Poisson { rps } => {
                let Some(rps) = usable_rate(*rps) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                let mut t = 0.0;
                let horizon_s = horizon.as_secs_f64();
                loop {
                    t += rng.exponential(rps);
                    if t >= horizon_s {
                        break;
                    }
                    out.push(SimTime::from_secs_f64(t));
                }
                out
            }
            ArrivalProcess::Uniform { rps } => {
                let Some(rps) = usable_rate(*rps) else {
                    return Vec::new();
                };
                let gap = SimTime::from_secs_f64(1.0 / rps);
                let mut out = Vec::new();
                let mut t = gap;
                while t < horizon {
                    out.push(t);
                    t += gap;
                }
                out
            }
            ArrivalProcess::Apollo { mean_rps } => apollo_schedule(*mean_rps, horizon, rng),
        }
    }
}

/// Synthesizes the Apollo-like trace: 70% of the rate is a jittered periodic
/// stream (a camera pipeline), 30% arrives in bursts of three back-to-back
/// requests every few frames (multi-sensor fusion events).
fn apollo_schedule(mean_rps: f64, horizon: SimTime, rng: &mut DetRng) -> Vec<SimTime> {
    let Some(mean_rps) = usable_rate(mean_rps) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let horizon_s = horizon.as_secs_f64();

    // Periodic stream with +-30% jitter.
    let base_rate = 0.7 * mean_rps;
    let gap = 1.0 / base_rate;
    let mut t = gap;
    while t < horizon_s {
        let jitter = 0.3 * gap * (2.0 * rng.next_f64() - 1.0);
        let at = (t + jitter).max(0.0);
        if at < horizon_s {
            out.push(SimTime::from_secs_f64(at));
        }
        t += gap;
    }

    // Bursts: Poisson-spaced burst events, three requests 2 ms apart.
    let burst_event_rate = 0.3 * mean_rps / 3.0;
    let mut bt = 0.0;
    loop {
        bt += rng.exponential(burst_event_rate);
        if bt >= horizon_s {
            break;
        }
        for k in 0..3 {
            let at = bt + k as f64 * 0.002;
            if at < horizon_s {
                out.push(SimTime::from_secs_f64(at));
            }
        }
    }

    out.sort_unstable();
    out
}

/// A mid-run workload drift: at sim time `at`, every kernel of the client's
/// workload starts taking `factor ×` its nominal solo duration (changed
/// tensor shapes, a model redeploy, thermal throttling). Copies are
/// unaffected. Drift is applied at *submit* time — kernels already on the
/// device keep their original duration — so the shift is sharp and
/// deterministic.
///
/// This exists so the online-profiling drift experiments and tests don't
/// hand-roll workload mutation: attach it to a client spec and the runtime
/// scales durations as requests are routed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Sim time at which the drift takes effect.
    pub at: SimTime,
    /// Multiplier on each kernel's solo duration from `at` onward
    /// (e.g. `1.5` = 50% slower). Must be positive.
    pub factor: f64,
}

impl DriftSpec {
    /// A drift that makes kernels `factor ×` slower starting at `at`.
    pub fn new(at: SimTime, factor: f64) -> Self {
        assert!(factor > 0.0, "drift factor must be positive");
        DriftSpec { at, factor }
    }

    /// True once the drift is in effect at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.at
    }

    /// The duration scale in effect at `now` (1.0 before the switch).
    pub fn scale_at(&self, now: SimTime) -> f64 {
        if self.active_at(now) {
            self.factor
        } else {
            1.0
        }
    }
}

/// The request rates of Table 3, in requests/second.
#[derive(Debug, Clone, Copy)]
pub struct PaperRates;

impl PaperRates {
    /// Inference-inference collocation, uniform arrivals (Table 3 col 1).
    pub fn inf_inf_uniform(model: ModelKind) -> f64 {
        match model {
            ModelKind::ResNet50 => 80.0,
            ModelKind::MobileNetV2 => 100.0,
            ModelKind::ResNet101 => 40.0,
            ModelKind::Bert => 8.0,
            ModelKind::Transformer => 20.0,
            ModelKind::LlmDecode => 10.0,
        }
    }

    /// Inference-inference collocation, Poisson arrivals (Table 3 col 2).
    pub fn inf_inf_poisson(model: ModelKind) -> f64 {
        match model {
            ModelKind::ResNet50 => 50.0,
            ModelKind::MobileNetV2 => 65.0,
            ModelKind::ResNet101 => 25.0,
            ModelKind::Bert => 5.0,
            ModelKind::Transformer => 12.0,
            ModelKind::LlmDecode => 8.0,
        }
    }

    /// Inference-training collocation, Poisson arrivals (Table 3 col 3).
    pub fn inf_train_poisson(model: ModelKind) -> f64 {
        match model {
            ModelKind::ResNet50 => 15.0,
            ModelKind::MobileNetV2 => 40.0,
            ModelKind::ResNet101 => 9.0,
            ModelKind::Bert => 4.0,
            ModelKind::Transformer => 8.0,
            ModelKind::LlmDecode => 5.0,
        }
    }

    /// Mean rate used for the synthesized Apollo trace of a model
    /// (the Apollo experiments pair with the inf-train Poisson load level).
    pub fn apollo_mean(model: ModelKind) -> f64 {
        Self::inf_train_poisson(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate_of(schedule: &[SimTime], horizon: SimTime) -> f64 {
        schedule.len() as f64 / horizon.as_secs_f64()
    }

    #[test]
    fn poisson_rate_close_to_nominal() {
        let mut rng = DetRng::new(1);
        let horizon = SimTime::from_secs(100);
        let s = ArrivalProcess::Poisson { rps: 50.0 }.schedule(horizon, &mut rng);
        let r = rate_of(&s, horizon);
        assert!((r - 50.0).abs() < 2.5, "rate {r}");
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn uniform_is_exactly_periodic() {
        let mut rng = DetRng::new(2);
        let horizon = SimTime::from_secs(1);
        let s = ArrivalProcess::Uniform { rps: 100.0 }.schedule(horizon, &mut rng);
        assert_eq!(s.len(), 99); // gaps at 10ms: 10ms..990ms
        for w in s.windows(2) {
            assert_eq!(w[1] - w[0], SimTime::from_millis(10));
        }
    }

    #[test]
    fn apollo_rate_and_burstiness() {
        let mut rng = DetRng::new(3);
        let horizon = SimTime::from_secs(100);
        let s = ArrivalProcess::Apollo { mean_rps: 30.0 }.schedule(horizon, &mut rng);
        let r = rate_of(&s, horizon);
        assert!((r - 30.0).abs() < 3.0, "rate {r}");
        // Burstiness: the squared coefficient of variation of inter-arrivals
        // exceeds a uniform process's (0) and a Poisson's is ~1; Apollo's
        // bursts push short gaps, so some gaps are ~2 ms.
        let short_gaps = s
            .windows(2)
            .filter(|w| (w[1] - w[0]) <= SimTime::from_millis(3))
            .count();
        assert!(short_gaps > 50, "short gaps {short_gaps}");
    }

    #[test]
    fn closed_loop_has_no_schedule() {
        let mut rng = DetRng::new(4);
        assert!(ArrivalProcess::ClosedLoop
            .schedule(SimTime::from_secs(10), &mut rng)
            .is_empty());
        assert!(ArrivalProcess::ClosedLoop.is_closed_loop());
        let think = ArrivalProcess::ClosedLoopThink {
            think: SimTime::from_millis(2),
        };
        assert!(think.is_closed_loop());
        assert_eq!(think.think_time(), SimTime::from_millis(2));
        assert_eq!(ArrivalProcess::ClosedLoop.think_time(), SimTime::ZERO);
        assert!(think.schedule(SimTime::from_secs(1), &mut rng).is_empty());
    }

    #[test]
    fn trace_filters_by_horizon() {
        let mut rng = DetRng::new(5);
        let tr = ArrivalProcess::Trace(vec![
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SimTime::from_secs(30),
        ]);
        let s = tr.schedule(SimTime::from_secs(10), &mut rng);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn degenerate_rates_are_empty() {
        let mut rng = DetRng::new(6);
        let h = SimTime::from_secs(1);
        for rps in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for p in [
                ArrivalProcess::Uniform { rps },
                ArrivalProcess::Poisson { rps },
                ArrivalProcess::Apollo { mean_rps: rps },
            ] {
                assert!(p.schedule(h, &mut rng).is_empty(), "{p:?}");
            }
        }
    }

    #[test]
    fn huge_rates_clamp_to_one_arrival_per_nanosecond() {
        let mut rng = DetRng::new(7);
        let h = SimTime::from_micros(1);
        let uniform = ArrivalProcess::Uniform { rps: 1e300 }.schedule(h, &mut rng);
        assert_eq!(uniform.len(), 999);
        let one_ns = SimTime::from_nanos(1);
        assert!(uniform.windows(2).all(|w| w[1] - w[0] == one_ns));
        for p in [
            ArrivalProcess::Poisson { rps: 1e300 },
            ArrivalProcess::Apollo { mean_rps: 1e300 },
        ] {
            let s = p.schedule(h, &mut rng);
            let n = s.len();
            assert!(n > 0 && n < 4_000, "{p:?}: {n} arrivals");
        }
    }

    #[test]
    fn paper_rates_match_table3() {
        assert_eq!(PaperRates::inf_inf_uniform(ModelKind::ResNet50), 80.0);
        assert_eq!(PaperRates::inf_inf_poisson(ModelKind::MobileNetV2), 65.0);
        assert_eq!(PaperRates::inf_train_poisson(ModelKind::Bert), 4.0);
        assert_eq!(PaperRates::inf_inf_uniform(ModelKind::Transformer), 20.0);
    }

    #[test]
    fn drift_spec_switches_at_configured_time() {
        let d = DriftSpec::new(SimTime::from_secs(2), 1.5);
        assert!(!d.active_at(SimTime::from_secs(1)));
        assert!(d.active_at(SimTime::from_secs(2)));
        assert_eq!(d.scale_at(SimTime::from_secs(1)), 1.0);
        assert_eq!(d.scale_at(SimTime::from_secs(3)), 1.5);
    }

    #[test]
    #[should_panic(expected = "drift factor must be positive")]
    fn drift_spec_rejects_nonpositive_factor() {
        let _ = DriftSpec::new(SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let h = SimTime::from_secs(10);
        let a = ArrivalProcess::Poisson { rps: 20.0 }.schedule(h, &mut DetRng::new(7));
        let b = ArrivalProcess::Poisson { rps: 20.0 }.schedule(h, &mut DetRng::new(7));
        assert_eq!(a, b);
    }
}
