//! Online profiling: learn kernel profiles and scheduler thresholds from a
//! live collocation run, with zero offline profiling phase (DESIGN.md §12).
//!
//! Orion's scheduler (paper §5.1, Listing 1) is profile-driven: it needs
//! each kernel's solo duration, compute/memory classification, and SM
//! demand, plus the high-priority client's solo request latency for the
//! `DUR_THRESHOLD` throttle. The paper obtains all of this from an offline
//! profiling pass (§5.2). This module removes that requirement: a run may
//! start with *empty* profile tables and converge to near-offline
//! scheduling quality by mining the engine's own completion stream.
//!
//! Three cooperating pieces:
//!
//! * [`estimator::Welford`] — streaming mean/variance per kernel, O(1) per
//!   completion, fed only *clean* samples (completions whose engine-level
//!   `interfered` flag is false, certifying the measured duration is the
//!   solo duration);
//! * [`ladder`] — the `Unknown → Observing → Admitted` admission state
//!   machine. Unknown/Observing kernels have no profile-table entry, so the
//!   scheduler's existing conservative path (best-effort kernels run only
//!   when no high-priority work is in flight) doubles as the measurement
//!   window. Enough low-variance samples synthesize a
//!   [`orion_profiler::KernelProfile`] and the kernel graduates to the full
//!   interference-aware gates. Divergent samples demote and re-learn
//!   (duration drift);
//! * [`tuner::SoloLatencyTuner`] — re-estimates the high-priority client's
//!   solo request latency (the `DUR_THRESHOLD` denominator) as the minimum
//!   request latency over a sliding window. Interference and queueing only
//!   inflate a request, so the windowed minimum is a tight upper bound on
//!   the solo latency that survives best-effort stragglers overlapping
//!   nearly every request.
//!
//! Determinism: the subsystem is constructed only when
//! [`crate::world::RunConfig::online`] is set (the
//! [`crate::supervisor::FaultConfig`] precedent), so disabled runs take zero
//! new branches and stay byte-identical. When enabled, every update is driven by the simulation's
//! own completion order — no wall clock, no randomness — so online runs are
//! as reproducible as offline ones.

pub mod estimator;
pub mod ladder;
pub mod tuner;

use std::sync::Arc;

use orion_desim::time::SimTime;

use crate::client::ClientPriority;
use ladder::{AdmissionState, KernelStore, LadderEvent};
use tuner::SoloLatencyTuner;

/// Sliding-window size of the solo-latency tuner.
const LATENCY_WINDOW: usize = 16;
/// Clean request latencies required before the first threshold update.
const MIN_LATENCY_SAMPLES: u32 = 3;
/// Oracle tolerance: relative error between a learned duration and the true
/// solo duration above which an admission is a violation.
pub(crate) const ADMIT_TOLERANCE: f64 = 0.10;

/// A profile-table mutation the world must apply after a ladder step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileAction {
    /// Admission: synthesize and insert profiles for these kernel ids with
    /// the learned mean duration.
    Publish { kernel_ids: Vec<u32>, mean: SimTime },
    /// Demotion: withdraw these kernel ids from the profile table.
    Withdraw { kernel_ids: Vec<u32> },
}

/// Per-client online state: a kernel ladder for everyone, a solo-latency
/// tuner for high-priority clients only.
#[derive(Debug)]
struct ClientOnline {
    store: KernelStore,
    tuner: Option<SoloLatencyTuner>,
}

/// The live online-profiling state of one collocation run. Constructed only
/// when [`crate::world::RunConfig::online`] is set; owned by the world alongside the
/// validator and supervisor.
#[derive(Debug)]
pub struct OnlineState {
    clients: Vec<ClientOnline>,
    /// Per-client flag: some op of the client's in-flight request ran
    /// interfered (engine truth), so the request's latency is not its solo
    /// latency. Cleared when the request completes.
    request_interfered: Vec<bool>,
    /// Per-client completion time of the last finished request, rejecting
    /// latency samples that include queueing behind a predecessor.
    last_request_done: Vec<SimTime>,
    /// Solo-latency estimates awaiting delivery to the policy, in
    /// completion order: `(client, estimate)`.
    pending_estimates: Vec<(usize, SimTime)>,
    /// Threshold updates delivered to the policy over the run.
    latency_estimates: u64,
}

impl OnlineState {
    /// Builds the per-client learning state (tuners for HP clients only).
    pub fn new(priorities: &[ClientPriority]) -> Self {
        let clients = priorities
            .iter()
            .map(|&p| ClientOnline {
                store: KernelStore::new(),
                tuner: (p == ClientPriority::HighPriority)
                    .then(|| SoloLatencyTuner::new(LATENCY_WINDOW)),
            })
            .collect();
        let n = priorities.len();
        OnlineState {
            clients,
            request_interfered: vec![false; n],
            last_request_done: vec![SimTime::ZERO; n],
            pending_estimates: Vec::new(),
            latency_estimates: 0,
        }
    }

    /// Records whether one op of the client's in-flight request ran
    /// interfered (or was retried after a fault — same contamination). A
    /// single tainted op disqualifies the whole request's latency sample.
    pub fn note_op_interference(&mut self, client: usize, interfered: bool) {
        if interfered {
            self.request_interfered[client] = true;
        }
    }

    /// Feeds one kernel completion into the client's admission ladder and
    /// returns the profile-table mutation it triggered, if any.
    pub fn observe_kernel(
        &mut self,
        client: usize,
        name: &Arc<str>,
        kernel_id: u32,
        dur: SimTime,
        interfered: bool,
    ) -> Option<ProfileAction> {
        let tracker = self.clients[client].store.tracker_mut(name, kernel_id);
        if interfered {
            tracker.observe_interfered();
            return None;
        }
        match tracker.observe_clean(dur)? {
            LadderEvent::Admit { mean } => Some(ProfileAction::Publish {
                kernel_ids: tracker.kernel_ids.clone(),
                mean,
            }),
            LadderEvent::Demote => Some(ProfileAction::Withdraw {
                kernel_ids: tracker.kernel_ids.clone(),
            }),
        }
    }

    /// Feeds one completed high-priority *request* (not op) into the
    /// solo-latency tuner. Every latency joins the sliding window (the
    /// windowed minimum filters inflation); the sample is additionally
    /// certified *clean* when (a) no op of the request ever ran interfered
    /// (the engine certifies each op's span was its solo span) and (b) the
    /// request did not queue behind its predecessor (its arrival postdates
    /// the previous completion, so the latency holds no waiting time).
    pub fn observe_hp_request(&mut self, client: usize, done_at: SimTime, latency: SimTime) {
        let interfered = std::mem::replace(&mut self.request_interfered[client], false);
        let queued = done_at.saturating_sub(latency) < self.last_request_done[client];
        self.last_request_done[client] = done_at;
        let Some(tuner) = self.clients[client].tuner.as_mut() else {
            return;
        };
        tuner.push(latency, !interfered && !queued);
        if let Some(est) = tuner.estimate(u64::from(MIN_LATENCY_SAMPLES)) {
            self.pending_estimates.push((client, est));
            self.latency_estimates += 1;
        }
    }

    /// Drains the solo-latency estimates queued since the last policy round.
    pub fn take_estimates(&mut self) -> Vec<(usize, SimTime)> {
        std::mem::take(&mut self.pending_estimates)
    }

    /// One client's kernel trackers (first-seen order), for reporting.
    pub fn store(&self, client: usize) -> &KernelStore {
        &self.clients[client].store
    }

    /// Summarizes the run. `true_solo` maps `(client, kernel_id)` to the
    /// kernel's true solo duration at the reporting instant (the caller
    /// applies any drift), grounding the learned-vs-true error columns.
    pub fn report(&self, true_solo: impl Fn(usize, u32) -> Option<SimTime>) -> OnlineReport {
        let mut r = OnlineReport {
            latency_estimates: self.latency_estimates,
            ..OnlineReport::default()
        };
        for (ci, c) in self.clients.iter().enumerate() {
            if let Some(t) = &c.tuner {
                r.clean_latency_samples += t.clean();
                r.contaminated_latency_samples += t.samples() - t.clean();
            }
            for tr in c.store.trackers() {
                r.tracked += 1;
                r.admissions += u64::from(tr.admissions);
                r.demotions += u64::from(tr.demotions);
                r.clean_samples += tr.clean_samples;
                r.interfered_samples += tr.interfered_samples;
                if tr.state != AdmissionState::Admitted {
                    continue;
                }
                r.admitted += 1;
                let Some(truth) =
                    tr.kernel_ids.first().and_then(|&id| true_solo(ci, id))
                else {
                    continue;
                };
                if truth.is_zero() {
                    continue;
                }
                let learned = tr.admitted_mean.as_nanos() as f64;
                let err = (learned - truth.as_nanos() as f64).abs() / truth.as_nanos() as f64;
                r.profile_errors += 1;
                r.mean_profile_error += err;
                r.max_profile_error = r.max_profile_error.max(err);
            }
        }
        if r.profile_errors > 0 {
            r.mean_profile_error /= r.profile_errors as f64;
        }
        r
    }
}

/// End-of-run summary of the online profiler, attached to
/// [`crate::world::RunResult`] when online mode was enabled.
#[derive(Debug, Clone, Default)]
pub struct OnlineReport {
    /// Kernels that produced at least one clean sample.
    pub tracked: usize,
    /// Kernels holding a learned profile at the horizon.
    pub admitted: usize,
    /// Total admissions (> `admitted` when drift forced re-learning).
    pub admissions: u64,
    /// Total demotions (drift detections).
    pub demotions: u64,
    /// Clean (uninterfered) kernel samples observed.
    pub clean_samples: u64,
    /// Interfered kernel completions (discarded from learning).
    pub interfered_samples: u64,
    /// Clean high-priority request latencies accepted by the tuner.
    pub clean_latency_samples: u64,
    /// Contaminated high-priority request latencies rejected by the tuner.
    pub contaminated_latency_samples: u64,
    /// `DUR_THRESHOLD` denominator updates delivered to the policy.
    pub latency_estimates: u64,
    /// Admitted kernels with a ground-truth duration to compare against.
    pub profile_errors: u64,
    /// Mean relative error of learned vs. true solo durations at the
    /// horizon, over kernels admitted at the horizon.
    pub mean_profile_error: f64,
    /// Worst such relative error.
    pub max_profile_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp_be() -> OnlineState {
        OnlineState::new(&[ClientPriority::HighPriority, ClientPriority::BestEffort])
    }

    #[test]
    fn kernel_admission_publishes_profile() {
        let mut s = hp_be();
        let name: Arc<str> = Arc::from("gemm_4");
        let dur = SimTime::from_micros(200);
        let mut action = None;
        for _ in 0..ladder::MIN_SAMPLES {
            action = s.observe_kernel(1, &name, 4, dur, false);
        }
        assert_eq!(
            action,
            Some(ProfileAction::Publish {
                kernel_ids: vec![4],
                mean: dur
            })
        );
        let r = s.report(|_, _| Some(dur));
        assert_eq!(r.tracked, 1);
        assert_eq!(r.admitted, 1);
        assert_eq!(r.mean_profile_error, 0.0);
    }

    #[test]
    fn interfered_kernels_publish_nothing() {
        let mut s = hp_be();
        let name: Arc<str> = Arc::from("conv2d_fprop_1");
        for _ in 0..50 {
            assert_eq!(
                s.observe_kernel(1, &name, 1, SimTime::from_micros(999), true),
                None
            );
        }
        let r = s.report(|_, _| None);
        assert_eq!(r.admitted, 0);
        assert_eq!(r.interfered_samples, 50);
    }

    #[test]
    fn hp_latency_windowed_minimum_rules() {
        let mut s = hp_be();
        let solo = SimTime::from_millis(5);
        let inflated = SimTime::from_millis(8);
        // A request with one interfered op is contaminated (the taint
        // clears with the request, not the run) but still bounds the
        // estimate from above.
        s.note_op_interference(0, false);
        s.note_op_interference(0, true);
        s.observe_hp_request(0, SimTime::from_millis(15), inflated);
        assert!(s.take_estimates().is_empty(), "still warming up");
        // Clean requests land in the window: the minimum snaps to solo and
        // estimates flow to the policy.
        for i in 0..MIN_LATENCY_SAMPLES {
            let done = SimTime::from_millis(25 + 10 * u64::from(i));
            s.observe_hp_request(0, done, solo);
        }
        let est = s.take_estimates();
        assert!(!est.is_empty());
        assert!(est.iter().all(|&(c, e)| c == 0 && e == solo), "{est:?}");
        assert!(s.take_estimates().is_empty(), "drained");
        // A queued request (arrived at 40 ms, before the previous
        // completion at 45 ms) counts as contaminated and cannot raise
        // the windowed minimum.
        s.observe_hp_request(0, SimTime::from_millis(70), SimTime::from_millis(30));
        assert_eq!(s.take_estimates(), vec![(0, solo)]);
        // BE-client completions never touch the tuner (no tuner there).
        s.observe_hp_request(1, SimTime::from_secs(1), solo);
        assert!(s.take_estimates().is_empty());
        let r = s.report(|_, _| None);
        assert_eq!(r.clean_latency_samples, u64::from(MIN_LATENCY_SAMPLES));
        assert_eq!(r.contaminated_latency_samples, 2);
    }

    #[test]
    fn report_measures_learned_error_against_truth() {
        let mut s = hp_be();
        let name: Arc<str> = Arc::from("layer_norm_6");
        let learned = SimTime::from_micros(100);
        for _ in 0..ladder::MIN_SAMPLES {
            s.observe_kernel(1, &name, 6, learned, false);
        }
        // Truth moved to 125 us (drift after admission, not yet detected):
        // error = 25/125 = 0.2.
        let r = s.report(|_, _| Some(SimTime::from_micros(125)));
        assert_eq!(r.profile_errors, 1);
        assert!((r.mean_profile_error - 0.2).abs() < 1e-9);
        assert!((r.max_profile_error - 0.2).abs() < 1e-9);
    }
}
