//! Fault configuration and the recovery supervisor.
//!
//! The supervisor is the fault-tolerance layer of the scheduling loop (see
//! DESIGN.md §11). The world consults it whenever the device reports
//! non-`Ok` completions or a watchdog deadline expires, and it decides the
//! recovery action per client:
//!
//! * **Sticky kernel fault** — the device dies (CUDA sticky-error
//!   semantics). The supervisor identifies the culprit client, resets the
//!   device, and deterministically resubmits every *surviving* client's
//!   aborted operations, high-priority clients first (priority
//!   re-admission). A best-effort culprit is **quarantined**: its current
//!   request is shed and the client is suspended for an exponentially
//!   growing backoff before re-admission. A high-priority culprit gets a
//!   bounded number of retries before its request is shed.
//! * **Non-sticky op fault** (copy/malloc failure) — the op alone is
//!   retried, bounded per request.
//! * **Watchdog stall** — an op outlived its deadline (expected duration
//!   plus a fixed 2 s grace); the supervisor resets the
//!   device preemptively and recovers as above with the stalled op's client
//!   as culprit.
//! * **Client crash/hang** — a client that stopped making progress while
//!   holding an in-flight request has the request shed so policies (e.g.
//!   temporal sharing) release any exclusive ownership.
//!
//! All backoff and retry accounting happens in simulated time with
//! deterministic arithmetic — no wall clock, no RNG — so a faulty run is as
//! reproducible as a fault-free one.

use std::collections::HashMap;

use orion_desim::time::SimTime;
use orion_gpu::fault::{FaultKind, FaultRates, FaultTarget};

/// Watchdog and retry/backoff tuning for the recovery supervisor. Every run
/// uses [`Default`]; the fields exist so the backoff and retry properties
/// can be tested over many values.
#[derive(Debug, Clone)]
pub(crate) struct SupervisorConfig {
    /// Period of the watchdog event that scans op deadlines and client
    /// liveness.
    pub watchdog_interval: SimTime,
    /// Grace added to an op's expected duration before the watchdog
    /// declares it stalled. Generous by default: interference can slow
    /// kernels several-fold, and a false positive costs a device reset.
    pub op_timeout: SimTime,
    /// How long a client may sit on an unfinished request without queued
    /// work, in-flight ops, or push progress before it is declared
    /// hung/crashed and its request is shed.
    pub client_timeout: SimTime,
    /// Retries per request before the supervisor sheds it.
    pub max_retries: u32,
    /// First quarantine backoff; doubles per quarantine of the same client.
    pub backoff_base: SimTime,
    /// Backoff growth cap.
    pub backoff_max: SimTime,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            watchdog_interval: SimTime::from_millis(50),
            op_timeout: SimTime::from_secs(2),
            client_timeout: SimTime::from_millis(50),
            max_retries: 3,
            backoff_base: SimTime::from_millis(1),
            backoff_max: SimTime::from_millis(64),
        }
    }
}

/// Device-fault injection for one run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probabilistic device-fault rates (see [`orion_gpu::fault`]).
    pub rates: FaultRates,
    /// Extra solo work carried by a stalled kernel.
    pub stall: SimTime,
    /// Targeted device faults.
    pub targets: Vec<(FaultTarget, FaultKind)>,
}

impl FaultConfig {
    /// No device faults.
    pub fn none() -> FaultConfig {
        FaultConfig {
            rates: FaultRates::default(),
            stall: SimTime::from_millis(50),
            targets: Vec::new(),
        }
    }

    /// True when this config can never inject a device fault. (Client
    /// lifecycle faults live on [`crate::client::ClientSpec`] and are
    /// accounted separately.)
    pub fn is_none(&self) -> bool {
        self.rates.is_zero() && self.targets.is_empty()
    }

    /// Sets the probabilistic rates (builder style).
    pub fn with_rates(mut self, rates: FaultRates) -> FaultConfig {
        self.rates = rates;
        self
    }

    /// Adds a targeted device fault (builder style).
    pub fn with_target(mut self, target: FaultTarget, kind: FaultKind) -> FaultConfig {
        self.targets.push((target, kind));
        self
    }
}

/// How a client misbehaves, once, at a chosen point in its request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFaultKind {
    /// The client process dies: no further pushes, pending arrivals are
    /// abandoned, and its unfinished request is shed by the watchdog.
    Crash,
    /// The client stops launching ops but stays resident; its unfinished
    /// request is shed by the watchdog.
    Hang,
    /// The client's launch thread slows by the given factor from this point
    /// on (models a descheduled/starved client process).
    SlowPoll {
        /// Launch-cost multiplier (≥ 1).
        factor: u32,
    },
}

/// A client lifecycle fault: fires when the client is about to push op
/// `after_ops` of request `at_request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientFault {
    /// What happens.
    pub kind: ClientFaultKind,
    /// Request ordinal (0-based, per client) at which the fault fires.
    pub at_request: u64,
    /// Op index within that request at which the fault fires.
    pub after_ops: u32,
}

/// Fault-and-recovery accounting for one run, surfaced in
/// [`crate::world::RunResult::robustness`]. All counters are zero for a
/// fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// Sticky device faults observed.
    pub device_faults: u64,
    /// Device resets performed (sticky recovery + watchdog resets).
    pub device_resets: u64,
    /// Ops that completed with a `Faulted` status.
    pub op_faults: u64,
    /// Ops killed by a sticky fault or reset before finishing.
    pub ops_aborted: u64,
    /// Aborted/faulted ops deterministically resubmitted.
    pub resubmitted_ops: u64,
    /// Retry rounds granted to faulted requests.
    pub retries: u64,
    /// Best-effort culprit quarantines.
    pub quarantines: u64,
    /// Quarantined clients re-admitted after backoff.
    pub readmissions: u64,
    /// Requests shed (quarantine, retry budget exhausted, or dead client).
    pub shed_requests: u64,
    /// Client crash faults fired.
    pub client_crashes: u64,
    /// Client hang faults fired.
    pub client_hangs: u64,
    /// Client slow-poll faults fired.
    pub slow_polls: u64,
    /// Watchdog-detected op stalls (each forced a device reset).
    pub watchdog_stalls: u64,
    /// Kernel ops pushed with no offline profile entry (scheduled
    /// conservatively; see DESIGN.md §11).
    pub unknown_kernel_ops: u64,
}

impl RobustnessReport {
    /// True when anything fault-related happened at all.
    pub fn any(&self) -> bool {
        *self != RobustnessReport::default()
    }

    /// Field-wise accumulation: folds another run's counters into this one.
    /// The fleet control plane rolls every episode's report up into a single
    /// fleet-level [`RobustnessReport`] with this.
    pub fn merge(&mut self, other: &RobustnessReport) {
        self.device_faults += other.device_faults;
        self.device_resets += other.device_resets;
        self.op_faults += other.op_faults;
        self.ops_aborted += other.ops_aborted;
        self.resubmitted_ops += other.resubmitted_ops;
        self.retries += other.retries;
        self.quarantines += other.quarantines;
        self.readmissions += other.readmissions;
        self.shed_requests += other.shed_requests;
        self.client_crashes += other.client_crashes;
        self.client_hangs += other.client_hangs;
        self.slow_polls += other.slow_polls;
        self.watchdog_stalls += other.watchdog_stalls;
        self.unknown_kernel_ops += other.unknown_kernel_ops;
    }
}

/// Mutable supervisor state inside a running world: per-client quarantine
/// and liveness tracking plus per-request retry budgets.
#[derive(Debug)]
pub(crate) struct Supervisor {
    pub cfg: SupervisorConfig,
    /// Quarantine expiry per client (`None` = admitted).
    pub suspended_until: Vec<Option<SimTime>>,
    /// Quarantine count per client, driving exponential backoff.
    backoff_level: Vec<u32>,
    /// Retry rounds consumed per (client, request).
    retries: HashMap<(usize, u64), u32>,
    /// Last time each client pushed an op or had one complete.
    pub last_progress: Vec<SimTime>,
    /// Clients whose crash fault has fired.
    pub dead: Vec<bool>,
    /// Client lifecycle faults already fired (they fire once).
    pub fault_fired: Vec<bool>,
    pub report: RobustnessReport,
}

impl Supervisor {
    pub fn new(cfg: SupervisorConfig, n_clients: usize) -> Supervisor {
        Supervisor {
            cfg,
            suspended_until: vec![None; n_clients],
            backoff_level: vec![0; n_clients],
            retries: HashMap::new(),
            last_progress: vec![SimTime::ZERO; n_clients],
            dead: vec![false; n_clients],
            fault_fired: vec![false; n_clients],
            report: RobustnessReport::default(),
        }
    }

    /// Escalates the client's quarantine level and returns the backoff
    /// delay: `backoff_base * 2^level`, capped at `backoff_max`.
    pub fn next_backoff(&mut self, client: usize) -> SimTime {
        let level = self.backoff_level[client].min(31);
        self.backoff_level[client] = self.backoff_level[client].saturating_add(1);
        let delay = self.cfg.backoff_base * (1u64 << level);
        delay.min(self.cfg.backoff_max)
    }

    /// Consumes one retry round for the request; `true` while within the
    /// budget, `false` when the request must be shed instead.
    pub fn try_retry(&mut self, client: usize, request_id: u64) -> bool {
        let count = self.retries.entry((client, request_id)).or_insert(0);
        if *count >= self.cfg.max_retries {
            return false;
        }
        *count += 1;
        self.report.retries += 1;
        true
    }

    /// Drops the retry budget entry of a finished or shed request.
    pub fn forget_request(&mut self, client: usize, request_id: u64) {
        self.retries.remove(&(client, request_id));
    }

    pub fn is_suspended(&self, client: usize) -> bool {
        self.suspended_until[client].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_and_caps() {
        let cfg = SupervisorConfig {
            backoff_base: SimTime::from_millis(1),
            backoff_max: SimTime::from_millis(4),
            ..SupervisorConfig::default()
        };
        let mut s = Supervisor::new(cfg, 2);
        assert_eq!(s.next_backoff(0), SimTime::from_millis(1));
        assert_eq!(s.next_backoff(0), SimTime::from_millis(2));
        assert_eq!(s.next_backoff(0), SimTime::from_millis(4));
        assert_eq!(s.next_backoff(0), SimTime::from_millis(4), "capped");
        // Per-client levels are independent.
        assert_eq!(s.next_backoff(1), SimTime::from_millis(1));
    }

    #[test]
    fn retry_budget_is_per_request() {
        let mut s = Supervisor::new(SupervisorConfig::default(), 1);
        for _ in 0..3 {
            assert!(s.try_retry(0, 7));
        }
        assert!(!s.try_retry(0, 7), "budget exhausted");
        assert!(s.try_retry(0, 8), "other requests unaffected");
        s.forget_request(0, 7);
        assert!(s.try_retry(0, 7), "budget resets after forget");
        assert_eq!(s.report.retries, 5);
    }

    #[test]
    fn report_any_reflects_counters() {
        let mut r = RobustnessReport::default();
        assert!(!r.any());
        r.unknown_kernel_ops = 1;
        assert!(r.any());
    }

    #[test]
    fn report_merge_accumulates_every_counter() {
        let mut a = RobustnessReport::default();
        let b = RobustnessReport {
            device_faults: 1,
            device_resets: 2,
            op_faults: 3,
            ops_aborted: 4,
            resubmitted_ops: 5,
            retries: 6,
            quarantines: 7,
            readmissions: 8,
            shed_requests: 9,
            client_crashes: 10,
            client_hangs: 11,
            slow_polls: 12,
            watchdog_stalls: 13,
            unknown_kernel_ops: 14,
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.device_faults, 2);
        assert_eq!(a.unknown_kernel_ops, 28);
        assert_eq!(a.shed_requests, 18);
        let mut zero = RobustnessReport::default();
        zero.merge(&RobustnessReport::default());
        assert!(!zero.any(), "merging zeros stays zero");
    }

    /// Property (randomized over base/max/strike count): the backoff sequence
    /// is monotone non-decreasing, never exceeds `backoff_max`, and never
    /// panics on overflow — even at strike counts far past the doubling range
    /// (SimTime multiplication saturates, and the shift exponent is clamped).
    #[test]
    fn prop_backoff_monotone_capped_no_overflow() {
        use orion_desim::rng::{cell_seed, DetRng};
        for case in 0..64u64 {
            let mut rng = DetRng::new(cell_seed(0xBAC0FF, case));
            // Bases up to ~18 s and occasionally enormous (near-saturating)
            // values; max always >= base.
            let base_ns = 1 + rng.uniform_u64(18_000_000_000);
            let base = if case % 7 == 0 {
                SimTime::from_secs(u64::MAX / 2_000_000_000) // ~9e9 s: forces saturation
            } else {
                SimTime::from_nanos(base_ns)
            };
            let max = base * (1 + rng.uniform_u64(1 << 12));
            let cfg = SupervisorConfig {
                backoff_base: base,
                backoff_max: max,
                ..SupervisorConfig::default()
            };
            let mut s = Supervisor::new(cfg, 1);
            let strikes = 40 + rng.uniform_u64(200);
            let mut prev = SimTime::ZERO;
            for i in 0..strikes {
                let d = s.next_backoff(0);
                assert!(d >= prev, "case {case}: strike {i} shrank {prev:?} -> {d:?}");
                assert!(d <= max, "case {case}: strike {i} exceeded cap");
                assert!(d >= base.min(max), "case {case}: below base");
                prev = d;
            }
            // Far past the doubling range the cap must have been reached.
            assert_eq!(prev, max, "case {case}: cap never reached");
        }
    }

    /// Property (randomized over budget): `try_retry` grants exactly
    /// `max_retries` rounds per request, then refuses forever, and the report
    /// counts exactly the granted rounds.
    #[test]
    fn prop_retry_budget_exhausts_exactly_at_bound() {
        use orion_desim::rng::{cell_seed, DetRng};
        for case in 0..64u64 {
            let mut rng = DetRng::new(cell_seed(0x2E72, case));
            let budget = rng.uniform_u64(12) as u32;
            let cfg = SupervisorConfig {
                max_retries: budget,
                ..SupervisorConfig::default()
            };
            let mut s = Supervisor::new(cfg, 2);
            let request = rng.uniform_u64(1 << 40);
            let mut granted = 0u64;
            for _ in 0..(budget as u64 + 5) {
                if s.try_retry(1, request) {
                    granted += 1;
                }
            }
            assert_eq!(granted, budget as u64, "case {case}: wrong budget");
            assert!(!s.try_retry(1, request), "case {case}: budget leaked");
            assert_eq!(s.report.retries, granted, "case {case}: report drifted");
            // Forgetting the request restores the full budget.
            s.forget_request(1, request);
            let regranted = (0..budget).filter(|_| s.try_retry(1, request)).count() as u32;
            assert_eq!(regranted, budget, "case {case}: forget did not reset");
        }
    }

    #[test]
    fn fault_config_none_detects_rates_and_targets() {
        assert!(FaultConfig::none().is_none());
        let with_rates = FaultConfig::none().with_rates(FaultRates {
            kernel_fault: 0.1,
            ..FaultRates::default()
        });
        assert!(!with_rates.is_none());
        let with_target = FaultConfig::none()
            .with_target(FaultTarget::Ordinal(3), FaultKind::CopyFail);
        assert!(!with_target.is_none());
    }
}
