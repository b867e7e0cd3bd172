//! The per-kernel admission ladder: `Unknown → Observing → Admitted`.
//!
//! Every kernel starts *Unknown* (no tracker — the profile table has no
//! entry, so the scheduler already treats it conservatively: best-effort
//! kernels run only when no high-priority work is in flight). The first
//! clean completion creates a tracker in *Observing*, where uninterfered
//! durations feed a Welford estimator. Once enough low-variance samples
//! agree, the kernel is *Admitted*: a [`orion_profiler::KernelProfile`] is
//! synthesized from the learned mean and the kernel's static launch
//! metadata, and Orion's interference gates (SM demand, compute-vs-memory
//! opposition, duration throttle) apply as if the profile were offline.
//!
//! Admitted kernels keep being watched. A run of strongly divergent clean
//! samples (z-score above the drift threshold, `drift_window` times in a
//! row) demotes the kernel back to Observing — its profile is withdrawn,
//! the estimator is re-seeded from the divergent samples, and the ladder
//! re-learns the new regime. Observing-state estimators likewise reset on a
//! strongly divergent sample: Welford never forgets, so mixing pre- and
//! post-drift samples would inflate the variance and block re-admission
//! forever.

use std::collections::HashMap;
use std::sync::Arc;

use orion_desim::time::SimTime;

use super::estimator::Welford;
use super::OnlineConfig;

/// Where a kernel sits on the admission ladder. `Unknown` is implicit: a
/// kernel with no tracker yet has produced no clean sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionState {
    /// Learning: clean samples accumulate, no profile is published.
    Observing,
    /// A learned profile is live in the client's [`orion_profiler::ProfileTable`].
    Admitted,
}

/// A ladder decision the world must act on (profile table mutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderEvent {
    /// Publish a profile with the given learned mean duration.
    Admit { mean: SimTime },
    /// Withdraw the published profile; the kernel re-learns.
    Demote,
}

/// Per-kernel learning state, keyed by interned kernel name.
#[derive(Debug)]
pub struct KernelTracker {
    /// Interned kernel name (the ladder key).
    pub name: Arc<str>,
    /// Kernel ids observed under this name (profile-table keys to publish
    /// or withdraw). Workload generators embed the id in the name, so this
    /// normally holds exactly one id; the vector tolerates aliasing.
    pub kernel_ids: Vec<u32>,
    /// Current ladder rung.
    pub state: AdmissionState,
    /// Streaming duration moments over the current regime's clean samples.
    est: Welford,
    /// Learned mean at the moment of (re-)admission.
    pub admitted_mean: SimTime,
    /// Consecutive divergent clean samples while Admitted.
    strikes: u32,
    /// The divergent samples themselves (ns), re-seeding the estimator on
    /// demotion so the new regime starts warm instead of from zero.
    strike_samples: Vec<f64>,
    /// Times this kernel was admitted (>= 1 re-admission after drift).
    pub admissions: u32,
    /// Times this kernel was demoted.
    pub demotions: u32,
    /// Clean (uninterfered) samples observed, all regimes.
    pub clean_samples: u64,
    /// Interfered completions observed (never fed to the estimator).
    pub interfered_samples: u64,
}

impl KernelTracker {
    fn new(name: Arc<str>, kernel_id: u32) -> Self {
        KernelTracker {
            name,
            kernel_ids: vec![kernel_id],
            state: AdmissionState::Observing,
            est: Welford::new(),
            admitted_mean: SimTime::ZERO,
            strikes: 0,
            strike_samples: Vec::new(),
            admissions: 0,
            demotions: 0,
            clean_samples: 0,
            interfered_samples: 0,
        }
    }

    /// Current learned mean duration.
    pub fn learned_mean(&self) -> SimTime {
        self.est.mean_time()
    }

    /// Clean samples in the current regime (post-reset).
    pub fn regime_samples(&self) -> u64 {
        self.est.count()
    }

    /// Folds in one clean (uninterfered) duration sample and walks the
    /// ladder. Returns the profile-table action this sample triggered.
    pub fn observe_clean(&mut self, dur: SimTime, cfg: &OnlineConfig) -> Option<LadderEvent> {
        self.clean_samples += 1;
        let ns = dur.as_nanos() as f64;
        let min_sigma = cfg.min_sigma.as_nanos() as f64;
        match self.state {
            AdmissionState::Observing => {
                // Regime check first: a strongly divergent sample while
                // learning means the distribution moved under us (drift
                // mid-observation). Restart seeded with the new sample.
                if self.est.count() >= 2 && self.est.z_score(ns, min_sigma) > cfg.drift_z {
                    self.est.reset();
                }
                self.est.push(ns);
                if self.est.count() >= u64::from(cfg.min_samples) && self.est.cv() <= cfg.max_cv
                {
                    self.state = AdmissionState::Admitted;
                    self.admitted_mean = self.est.mean_time();
                    self.admissions += 1;
                    return Some(LadderEvent::Admit {
                        mean: self.admitted_mean,
                    });
                }
                None
            }
            AdmissionState::Admitted => {
                if self.est.z_score(ns, min_sigma) > cfg.drift_z {
                    self.strikes += 1;
                    self.strike_samples.push(ns);
                    if self.strikes >= cfg.drift_window {
                        // Drift confirmed: withdraw the profile and re-learn
                        // the new regime, seeded with the strike samples.
                        self.state = AdmissionState::Observing;
                        self.demotions += 1;
                        self.strikes = 0;
                        self.est.reset();
                        for &s in &self.strike_samples {
                            self.est.push(s);
                        }
                        self.strike_samples.clear();
                        return Some(LadderEvent::Demote);
                    }
                } else {
                    // On-distribution: the strike run is broken and the
                    // sample refines the (cumulative) regime estimate.
                    self.strikes = 0;
                    self.strike_samples.clear();
                    self.est.push(ns);
                }
                None
            }
        }
    }

    /// Records an interfered completion. Never a sample — the measured
    /// duration includes slowdown from sharing — but counted for reports.
    pub fn observe_interfered(&mut self) {
        self.interfered_samples += 1;
    }
}

/// One client's kernel trackers, keyed by interned name, in first-seen
/// order. Reports iterate `trackers`, never a hash map, so they are
/// deterministic across runs.
///
/// Lookups go through a per-kernel-id cache first: a hit costs one name
/// comparison, and the name is hashed only when the cache misses (first
/// sight of the id, or an id last seen under another name, as serving step
/// shapes reuse ids).
#[derive(Debug, Default)]
pub struct KernelStore {
    index: HashMap<Arc<str>, usize>,
    trackers: Vec<KernelTracker>,
    /// Tracker index by kernel id (`u32::MAX` = none). Each cached tracker
    /// already lists its id in `kernel_ids`. Ids beyond twice the tracker
    /// count (plus slack) are not cached, so the cache never grows by a
    /// stray large id.
    by_id: Vec<u32>,
}

/// Ids the id cache may cover beyond twice the tracker count.
const ID_CACHE_SLACK: usize = 64;

impl KernelStore {
    /// An empty store.
    pub fn new() -> Self {
        KernelStore::default()
    }

    /// The tracker for `name`, created in Observing on first sight.
    /// `kernel_id` is recorded as a publish/withdraw target for the name.
    pub fn tracker_mut(&mut self, name: &Arc<str>, kernel_id: u32) -> &mut KernelTracker {
        let slot = kernel_id as usize;
        if let Some(&i) = self.by_id.get(slot) {
            if i != u32::MAX && self.trackers[i as usize].name == *name {
                return &mut self.trackers[i as usize];
            }
        }
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.trackers.len();
                self.index.insert(Arc::clone(name), i);
                self.trackers.push(KernelTracker::new(Arc::clone(name), kernel_id));
                i
            }
        };
        if slot < 2 * self.trackers.len() + ID_CACHE_SLACK {
            if slot >= self.by_id.len() {
                self.by_id.resize(slot + 1, u32::MAX);
            }
            self.by_id[slot] = i as u32;
        }
        let t = &mut self.trackers[i];
        if !t.kernel_ids.contains(&kernel_id) {
            t.kernel_ids.push(kernel_id);
        }
        t
    }

    /// All trackers, in first-seen order.
    pub fn trackers(&self) -> &[KernelTracker] {
        &self.trackers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OnlineConfig {
        OnlineConfig::learning()
    }

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn ladder_admits_after_min_low_variance_samples() {
        let cfg = cfg();
        let mut store = KernelStore::new();
        let name = arc("gemm_7");
        let dur = SimTime::from_micros(120);
        let mut admitted = None;
        for _ in 0..cfg.min_samples {
            let t = store.tracker_mut(&name, 7);
            assert_eq!(t.state, AdmissionState::Observing);
            admitted = t.observe_clean(dur, &cfg);
        }
        assert_eq!(admitted, Some(LadderEvent::Admit { mean: dur }));
        let t = store.tracker_mut(&name, 7);
        assert_eq!(t.state, AdmissionState::Admitted);
        assert_eq!(t.admitted_mean, dur);
        assert_eq!(t.kernel_ids, vec![7]);
    }

    #[test]
    fn interfered_samples_never_admit() {
        let mut store = KernelStore::new();
        let name = arc("conv2d_fprop_0");
        for _ in 0..20 {
            store.tracker_mut(&name, 0).observe_interfered();
        }
        let t = store.tracker_mut(&name, 0);
        assert_eq!(t.state, AdmissionState::Observing);
        assert_eq!(t.clean_samples, 0);
        assert_eq!(t.interfered_samples, 20);
    }

    #[test]
    fn drift_demotes_then_readmits_new_regime() {
        let cfg = cfg();
        let mut store = KernelStore::new();
        let name = arc("batch_norm_3");
        let old = SimTime::from_micros(100);
        let new = SimTime::from_micros(150); // 1.5x drift
        for _ in 0..cfg.min_samples {
            store.tracker_mut(&name, 3).observe_clean(old, &cfg);
        }
        assert_eq!(store.tracker_mut(&name, 3).state, AdmissionState::Admitted);

        // Post-drift samples strike until the window demotes.
        let mut demoted = false;
        for _ in 0..cfg.drift_window {
            let ev = store.tracker_mut(&name, 3).observe_clean(new, &cfg);
            demoted = ev == Some(LadderEvent::Demote);
        }
        assert!(demoted, "drift_window strikes must demote");
        let t = store.tracker_mut(&name, 3);
        assert_eq!(t.state, AdmissionState::Observing);
        assert_eq!(t.demotions, 1);
        // The strike samples seeded the new regime...
        assert_eq!(t.regime_samples(), u64::from(cfg.drift_window));
        // ...so re-admission needs only the remaining samples.
        let mut readmitted = None;
        for _ in 0..cfg.min_samples {
            readmitted = store.tracker_mut(&name, 3).observe_clean(new, &cfg);
            if readmitted.is_some() {
                break;
            }
        }
        assert_eq!(readmitted, Some(LadderEvent::Admit { mean: new }));
    }

    #[test]
    fn single_on_distribution_sample_clears_strikes() {
        let cfg = cfg();
        let mut store = KernelStore::new();
        let name = arc("elementwise_9");
        let dur = SimTime::from_micros(80);
        for _ in 0..cfg.min_samples {
            store.tracker_mut(&name, 9).observe_clean(dur, &cfg);
        }
        // One divergent sample (a transient, not drift), then normal again:
        // no demotion ever happens.
        for _ in 0..10 {
            assert_eq!(
                store
                    .tracker_mut(&name, 9)
                    .observe_clean(SimTime::from_micros(200), &cfg),
                None
            );
            assert_eq!(store.tracker_mut(&name, 9).observe_clean(dur, &cfg), None);
        }
        assert_eq!(store.tracker_mut(&name, 9).state, AdmissionState::Admitted);
        assert_eq!(store.tracker_mut(&name, 9).demotions, 0);
    }

    #[test]
    fn observing_reset_on_divergence_unblocks_admission() {
        let cfg = cfg();
        let mut store = KernelStore::new();
        let name = arc("pooling_2");
        // Two pre-drift samples, then the regime moves: without the reset
        // the mixed variance would hold CV above the gate indefinitely.
        store
            .tracker_mut(&name, 2)
            .observe_clean(SimTime::from_micros(100), &cfg);
        store
            .tracker_mut(&name, 2)
            .observe_clean(SimTime::from_micros(100), &cfg);
        let new = SimTime::from_micros(160);
        let mut admitted = None;
        for _ in 0..cfg.min_samples {
            admitted = store.tracker_mut(&name, 2).observe_clean(new, &cfg);
            if admitted.is_some() {
                break;
            }
        }
        assert_eq!(admitted, Some(LadderEvent::Admit { mean: new }));
    }

    /// The id cache must not change which tracker a lookup returns or the
    /// ids it records: two ids under one name, one id under two names (as
    /// serving step shapes reuse ids), and an uncached huge id all match a
    /// name-keyed model.
    #[test]
    fn id_cache_matches_name_keyed_lookup_under_aliasing() {
        use orion_desim::rng::DetRng;
        let cfg = cfg();
        let names: Vec<Arc<str>> = (0..6).map(|i| arc(&format!("k{i}"))).collect();
        for seed in 0..30u64 {
            let mut rng = DetRng::new(seed);
            let mut store = KernelStore::new();
            // Model: per name, in first-seen order, its ids and sample count.
            let mut model: Vec<(Arc<str>, Vec<u32>, u64)> = Vec::new();
            for _ in 0..2000 {
                // A fresh `Arc` per lookup half the time: equal names
                // that are not the same allocation must still hit.
                let n = &names[rng.uniform_u64(names.len() as u64) as usize];
                let name = if rng.uniform_u64(2) == 0 {
                    Arc::clone(n)
                } else {
                    arc(n)
                };
                let id = match rng.uniform_u64(5) {
                    4 => u32::MAX - rng.uniform_u64(2) as u32,
                    _ => rng.uniform_u64(8) as u32,
                };
                let t = store.tracker_mut(&name, id);
                t.observe_clean(SimTime::from_micros(100), &cfg);
                let pos = match model.iter().position(|(m, _, _)| *m == name) {
                    Some(p) => p,
                    None => {
                        model.push((Arc::clone(&name), Vec::new(), 0));
                        model.len() - 1
                    }
                };
                let entry = &mut model[pos];
                if !entry.1.contains(&id) {
                    entry.1.push(id);
                }
                entry.2 += 1;
                assert_eq!(t.name, entry.0, "seed {seed}");
                assert_eq!(t.kernel_ids, entry.1, "seed {seed}");
            }
            let got: Vec<(Arc<str>, Vec<u32>, u64)> = store
                .trackers()
                .iter()
                .map(|t| (Arc::clone(&t.name), t.kernel_ids.clone(), t.clean_samples))
                .collect();
            assert_eq!(got, model, "seed {seed}");
            assert!(store.by_id.len() <= 2 * names.len() + ID_CACHE_SLACK);
        }
    }
}
