//! The Orion scheduling policy (paper §5.1, Listing 1).
//!
//! High-priority operations are submitted immediately on a dedicated
//! high-priority stream. A best-effort kernel is submitted only when
//!
//! 1. the cumulative expected duration of *outstanding* best-effort kernels
//!    is below `DUR_THRESHOLD` (a fraction of the high-priority job's solo
//!    request latency) — the throttle that substitutes for the missing
//!    kernel preemption (§5.1.2); and
//! 2. either no high-priority kernel is on the device, or the best-effort
//!    kernel is small (`sm_needed < SM_THRESHOLD`) *and* its compute/memory
//!    profile is opposite to the running high-priority kernel's (kernels
//!    with `Unknown` profiles are optimistically allowed, §5.2).
//!
//! [`OrionConfig::offpeak_duty`] narrows rule 2 for serving: only a true
//! opposite overlaps freely, and every other best-effort kernel draws on a
//! per-request slice of the high-priority request's predicted solo time.
//!
//! Memory operations are submitted directly (§5.1.3); their blocking and
//! device-synchronization semantics are enforced by the client layer and
//! the device engine respectively.
//!
//! The outstanding-duration check in Listing 1 uses a CUDA event recorded
//! after the most recent best-effort kernel (`be_submitted.finished()`).
//! Streams execute in order, so "the last recorded event fired" is exactly
//! "no best-effort kernel is outstanding"; we track the outstanding set
//! directly, which generalizes to multiple best-effort streams without a
//! per-kernel event object.

use std::collections::{HashMap, HashSet, VecDeque};

use orion_desim::time::SimTime;
use orion_gpu::engine::OpId;
use orion_gpu::kernel::ResourceProfile;
use orion_gpu::stream::{StreamId, StreamPriority};

use super::{split_clients, Policy, PolicyDebugState, RoutedCompletion, SchedCtx};
use crate::client::ClientPriority;

/// Orion configuration: the paper's defaults plus the ablation switches of
/// Figure 14 and the PCIe extension of §5.1.3.
#[derive(Debug, Clone, PartialEq)]
pub struct OrionConfig {
    /// Submit the high-priority client on a CUDA high-priority stream.
    pub use_stream_priorities: bool,
    /// Gate best-effort kernels on opposite compute/memory profiles.
    pub use_profile_check: bool,
    /// Gate best-effort kernels on `sm_needed < SM_THRESHOLD`.
    pub use_sm_check: bool,
    /// `DUR_THRESHOLD` as a fraction of the high-priority solo request
    /// latency; `None` disables the outstanding-duration throttle.
    pub dur_threshold_frac: Option<f64>,
    /// Explicit `SM_THRESHOLD`; `None` uses the device SM count (§5.1.1
    /// default). See [`crate::tuning`] for the binary-search auto-tuner.
    pub sm_threshold: Option<u32>,
    /// §5.1.3 extension: only submit best-effort memcpys when the PCIe link
    /// is not already saturated by high-priority copies.
    pub pcie_aware_memcpy: bool,
    /// Serving extension: the off-peak duty. When set, only a best-effort
    /// kernel whose profile is the true opposite (compute vs memory) of the
    /// running high-priority kernel overlaps it freely. Every other profiled
    /// best-effort kernel, `Unknown` included, shares a slice worth this
    /// fraction of the in-flight high-priority request's predicted solo
    /// time, and the slice refills on each new high-priority request. `None`
    /// (the default) is Listing 1 unchanged.
    pub offpeak_duty: Option<f64>,
    /// Test fixture: reintroduces the historical `hp_copies`
    /// increment/decrement asymmetry (count only *blocking* HP copies on
    /// submit, but decrement on *any* HP non-kernel completion), so the
    /// validation oracle's stress harness can demonstrate that it catches
    /// this bug class. Compiled only into test builds and under the
    /// `test-fixtures` feature.
    #[cfg(any(test, feature = "test-fixtures"))]
    #[doc(hidden)]
    pub inject_hp_copy_drift: bool,
}

impl Default for OrionConfig {
    fn default() -> Self {
        OrionConfig {
            use_stream_priorities: true,
            use_profile_check: true,
            use_sm_check: true,
            dur_threshold_frac: Some(0.025),
            sm_threshold: None,
            pcie_aware_memcpy: false,
            offpeak_duty: None,
            #[cfg(any(test, feature = "test-fixtures"))]
            inject_hp_copy_drift: false,
        }
    }
}

impl OrionConfig {
    /// Figure 14 step: profile-aware scheduling without the SM-size check.
    pub fn profiles_only() -> Self {
        OrionConfig {
            use_sm_check: false,
            ..Default::default()
        }
    }

    /// The serving preset: [`OrionConfig::profiles_only`] with a 0.35
    /// off-peak duty. A saturated serving stream leaves no high-priority
    /// idle gap, so under Listing 1 a trainer stalls on its first kernel
    /// that shares the running step's profile (memory-bound during decode);
    /// the slice lets such kernels overlap about a third of each step.
    pub fn serving() -> Self {
        OrionConfig {
            offpeak_duty: Some(0.35),
            ..Self::profiles_only()
        }
    }

    /// Figure 14 step: full Orion without stream priorities.
    pub fn no_priorities() -> Self {
        OrionConfig {
            use_stream_priorities: false,
            ..Default::default()
        }
    }

    /// Overrides the duration-throttle fraction (§6.4 sensitivity study).
    pub fn with_dur_threshold(mut self, frac: f64) -> Self {
        self.dur_threshold_frac = Some(frac);
        self
    }

    /// Overrides `SM_THRESHOLD`.
    pub fn with_sm_threshold(mut self, sms: u32) -> Self {
        self.sm_threshold = Some(sms);
        self
    }
}

/// The Orion scheduler state.
#[derive(Debug)]
pub struct Orion {
    cfg: OrionConfig,
    hp_stream: Option<StreamId>,
    /// One stream per client index (best-effort clients only).
    be_streams: Vec<Option<StreamId>>,
    /// High-priority client indices (fixed at setup).
    hp_clients: Vec<usize>,
    /// Best-effort client indices (fixed at setup).
    be_clients: Vec<usize>,
    /// Absolute `DUR_THRESHOLD` derived from the HP profile at setup.
    dur_threshold: SimTime,
    /// Per-HP-client absolute thresholds feeding the min above. Setup seeds
    /// each entry from the offline profile; an online solo-latency estimate
    /// ([`Policy::on_solo_latency_estimate`]) *replaces* its client's entry —
    /// replacement, not `min`, because a cold start seeds ZERO (empty
    /// profile ⇒ zero request latency) and a min would pin the throttle shut
    /// forever.
    dur_thresholds: HashMap<usize, SimTime>,
    sm_threshold: u32,
    /// Outstanding best-effort kernels with their profiles, oldest first.
    /// Each best-effort stream completes in order, so a completing kernel is
    /// its client's oldest entry, at or near the front.
    be_outstanding: VecDeque<(OpId, ResourceProfile)>,
    /// Cumulative expected duration counter (`be_duration` in Listing 1).
    be_duration: SimTime,
    /// Outstanding high-priority kernels with their profiles, oldest first.
    /// The high-priority stream completes in order, so completions leave
    /// from the front.
    hp_outstanding: VecDeque<(OpId, ResourceProfile)>,
    /// Outstanding high-priority blocking copies, by op id (PCIe extension).
    ///
    /// Tracking ids — not a bare counter — keeps the increment and decrement
    /// sides structurally symmetric: an id leaves the set only when *that*
    /// op completes. The historical counter version decremented on any HP
    /// non-kernel completion (async copies included), so an async HP copy
    /// completing while a blocking copy was still in flight zeroed the gate.
    hp_copy_ids: HashSet<OpId>,
    /// The historical asymmetric counter, consulted only under
    /// [`OrionConfig::inject_hp_copy_drift`].
    #[cfg(any(test, feature = "test-fixtures"))]
    hp_copies_legacy: usize,
    /// Round-robin cursor over best-effort clients.
    rr: usize,
    /// The `(client, request)` whose off-peak slice is current
    /// ([`OrionConfig::offpeak_duty`] only).
    slice_owner: Option<(usize, u64)>,
    /// Size of the current off-peak slice.
    slice: SimTime,
    /// Expected duration best-effort kernels drew from the current slice.
    slice_spent: SimTime,
}

impl Orion {
    /// Creates an Orion policy with the given configuration.
    pub fn new(cfg: OrionConfig) -> Self {
        Orion {
            cfg,
            hp_stream: None,
            be_streams: Vec::new(),
            hp_clients: Vec::new(),
            be_clients: Vec::new(),
            dur_threshold: SimTime::MAX,
            dur_thresholds: HashMap::new(),
            sm_threshold: u32::MAX,
            be_outstanding: VecDeque::new(),
            be_duration: SimTime::ZERO,
            hp_outstanding: VecDeque::new(),
            hp_copy_ids: HashSet::new(),
            #[cfg(any(test, feature = "test-fixtures"))]
            hp_copies_legacy: 0,
            rr: 0,
            slice_owner: None,
            slice: SimTime::ZERO,
            slice_spent: SimTime::ZERO,
        }
    }

    /// The active absolute duration threshold (for tests and tuning).
    pub fn dur_threshold(&self) -> SimTime {
        self.dur_threshold
    }

    /// High-priority blocking copies the PCIe gate currently counts.
    fn hp_copies(&self) -> usize {
        #[cfg(any(test, feature = "test-fixtures"))]
        if self.cfg.inject_hp_copy_drift {
            return self.hp_copies_legacy;
        }
        self.hp_copy_ids.len()
    }

    fn hp_active(&self) -> bool {
        !self.hp_outstanding.is_empty()
    }

    /// The profile of the high-priority kernel currently *executing*.
    ///
    /// The high-priority stream executes in order and Orion submits HP ops
    /// with client run-ahead, so the oldest outstanding kernel is the one on
    /// the device (`op_hp` in Listing 1's `schedule_be` — the kernel the
    /// best-effort candidate would actually overlap).
    fn current_hp_profile(&self) -> ResourceProfile {
        self.hp_outstanding
            .front()
            .map_or(ResourceProfile::Unknown, |(_, p)| *p)
    }

    /// Listing 1 `have_different_profiles`: opposite compute/memory classes;
    /// unknown-profile kernels are optimistically allowed (§5.2).
    fn different_profiles(hp: ResourceProfile, be: ResourceProfile) -> bool {
        be == ResourceProfile::Unknown
            || hp == ResourceProfile::Unknown
            || hp.is_opposite(be)
    }

    /// True when a best-effort kernel of profile `be` admitted now draws on
    /// the off-peak slice: the duty is set, high-priority kernels are
    /// running, and `be` is not the true opposite of the running one.
    fn draws_slice(&self, be: ResourceProfile) -> bool {
        self.cfg.offpeak_duty.is_some()
            && self.hp_active()
            && !self.current_hp_profile().is_opposite(be)
    }

    /// Listing 1 `schedule_be`, plus the off-peak slice and the
    /// conservative unprofiled-kernel gate
    /// (DESIGN.md §11). `be_dur` is the kernel's profiled duration.
    fn schedule_be(
        &self,
        be_profile: ResourceProfile,
        be_sm: u32,
        be_dur: SimTime,
        profiled: bool,
    ) -> bool {
        if !profiled {
            // The offline profile has no entry for this kernel, so its SM
            // demand and bottleneck are unknown (not merely "balanced").
            // Degrade conservatively: never co-schedule it with high-priority
            // work, run it only on an otherwise HP-idle device.
            return !self.hp_active();
        }
        if !self.hp_active() {
            return true;
        }
        let sm_ok = !self.cfg.use_sm_check || be_sm < self.sm_threshold;
        let profile_ok = !self.cfg.use_profile_check
            || match self.cfg.offpeak_duty {
                None => Self::different_profiles(self.current_hp_profile(), be_profile),
                Some(_) => {
                    !self.draws_slice(be_profile) || self.slice_spent + be_dur <= self.slice
                }
            };
        sm_ok && profile_ok
    }
}

/// The oracle's drift-injection fixture ([`OrionConfig::inject_hp_copy_drift`]).
#[cfg(any(test, feature = "test-fixtures"))]
impl Orion {
    /// The historical asymmetry: *any* HP non-kernel completion (async
    /// copies included) decremented the gate counter, though only blocking
    /// copies incremented it.
    fn legacy_hp_copy_completed(&mut self, c: &RoutedCompletion) {
        if !c.is_kernel && self.hp_clients.contains(&c.client) && self.hp_copies_legacy > 0 {
            self.hp_copies_legacy -= 1;
        }
    }
}

impl Policy for Orion {
    fn name(&self) -> &'static str {
        "Orion"
    }

    fn setup(&mut self, ctx: &mut SchedCtx) {
        let hp_prio = if self.cfg.use_stream_priorities {
            StreamPriority::HIGH
        } else {
            StreamPriority::DEFAULT
        };
        self.be_streams = vec![None; ctx.clients.len()];
        (self.hp_clients, self.be_clients) = split_clients(ctx.clients);
        for (i, c) in ctx.clients.iter().enumerate() {
            match c.priority() {
                ClientPriority::HighPriority => {
                    // All high-priority clients share one high-priority
                    // stream (the paper assumes a single HP client; with
                    // several, a per-client stream would let the *last*
                    // client's stream silently absorb everyone's ops).
                    let s = *self
                        .hp_stream
                        .get_or_insert_with(|| ctx.gpu.create_stream(hp_prio));
                    debug_assert_eq!(Some(s), self.hp_stream);
                    // DUR_THRESHOLD is a tunable percentage of the HP job's
                    // solo request latency (§5.1.1). With several HP clients
                    // the tightest (minimum) threshold governs, so the most
                    // latency-sensitive of them keeps its guarantee.
                    let threshold = match self.cfg.dur_threshold_frac {
                        Some(f) => c.profile.request_latency.mul_f64(f),
                        None => SimTime::MAX,
                    };
                    self.dur_thresholds.insert(i, threshold);
                    self.dur_threshold = self.dur_threshold.min(threshold);
                }
                ClientPriority::BestEffort => {
                    self.be_streams[i] = Some(ctx.gpu.create_stream(StreamPriority::DEFAULT));
                }
            }
        }
        self.sm_threshold = self
            .cfg
            .sm_threshold
            .unwrap_or(ctx.gpu.spec().num_sms);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx) {
        // High-priority ops are submitted immediately (Listing 1 line 7-8).
        if let Some(hp_stream) = self.hp_stream {
            for i in 0..self.hp_clients.len() {
                let hc = self.hp_clients[i];
                while ctx.clients[hc].peek().is_some() {
                    let blocking_copy = ctx.clients[hc]
                        .peek()
                        .is_some_and(|o| o.is_blocking);
                    let Some(routed) = ctx.submit_head(hc, hp_stream) else {
                        return; // device faulted: head requeued, retry next round
                    };
                    if let Some(duty) = self.cfg.offpeak_duty {
                        if self.slice_owner != Some((hc, routed.request_id)) {
                            // A new HP request: refill the off-peak slice.
                            self.slice_owner = Some((hc, routed.request_id));
                            self.slice = ctx.clients[hc]
                                .workload_of(routed.request_id)
                                .solo_kernel_time()
                                .mul_f64(duty);
                            self.slice_spent = SimTime::ZERO;
                        }
                    }
                    if routed.is_kernel {
                        self.hp_outstanding.push_back((routed.op, routed.profile));
                    } else if blocking_copy {
                        self.hp_copy_ids.insert(routed.op);
                        #[cfg(any(test, feature = "test-fixtures"))]
                        {
                            self.hp_copies_legacy += 1;
                        }
                    }
                }
            }
        }

        // Best-effort clients, round-robin (§5.1.1).
        if self.be_clients.is_empty() {
            return;
        }
        let n = self.be_clients.len();
        let mut idle_rounds = 0;
        while idle_rounds < n {
            let bc = self.be_clients[self.rr % n];
            self.rr = (self.rr + 1) % n;
            let Some(stream) = self.be_streams[bc] else {
                idle_rounds += 1;
                continue;
            };
            let Some(head) = ctx.clients[bc].peek() else {
                idle_rounds += 1;
                continue;
            };

            if !head.is_kernel {
                // Memory operations are submitted directly (§5.1.3), unless
                // the PCIe extension is on and HP copies are in flight.
                if self.cfg.pcie_aware_memcpy && self.hp_copies() > 0 {
                    idle_rounds += 1;
                    continue;
                }
                ctx.submit_head(bc, stream);
                idle_rounds = 0;
                continue;
            }

            // Outstanding-duration throttle (Listing 1 lines 12-16).
            if self.be_duration > self.dur_threshold {
                if self.be_outstanding.is_empty() {
                    self.be_duration = SimTime::ZERO;
                } else {
                    // All best-effort clients wait for the GPU to drain.
                    break;
                }
            }

            let ok = self.schedule_be(
                head.profile,
                head.sm_needed,
                head.expected_dur,
                head.profiled,
            );
            if !ok {
                idle_rounds += 1;
                continue;
            }
            let draws_slice = self.draws_slice(head.profile);
            let Some(routed) = ctx.submit_head(bc, stream) else {
                return; // device faulted: head requeued, retry next round
            };
            if draws_slice {
                self.slice_spent += routed.expected_dur;
            }
            self.be_outstanding.push_back((routed.op, routed.profile));
            self.be_duration += routed.expected_dur;
            idle_rounds = 0;
        }
    }

    fn on_solo_latency_estimate(&mut self, client: usize, latency: SimTime) {
        // Only meaningful when the throttle is on and the client is one the
        // setup pass registered as high priority.
        let Some(f) = self.cfg.dur_threshold_frac else {
            return;
        };
        if !self.dur_thresholds.contains_key(&client) {
            return;
        }
        self.dur_thresholds.insert(client, latency.mul_f64(f));
        // The tightest client still governs; recompute the min from scratch
        // (replacement can *raise* a client's entry, e.g. recovering from the
        // zero a cold start seeds, so an incremental min is wrong).
        self.dur_threshold = self
            .dur_thresholds
            .values()
            .copied()
            .min()
            .unwrap_or(SimTime::MAX);
    }

    fn on_completions(&mut self, completions: &[RoutedCompletion], _ctx: &mut SchedCtx) {
        for c in completions {
            // Each op sits in at most the one set its kind and class file
            // it under.
            let outstanding = if !c.is_kernel {
                if !self.hp_copy_ids.is_empty() {
                    self.hp_copy_ids.remove(&c.op);
                }
                None
            } else if matches!(self.be_streams.get(c.client), Some(Some(_))) {
                Some(&mut self.be_outstanding)
            } else {
                Some(&mut self.hp_outstanding)
            };
            // A scan from the front: in-order streams put the op there
            // unless a device reset aborted the stream.
            if let Some(list) = outstanding {
                if let Some(pos) = list.iter().position(|(op, _)| *op == c.op) {
                    list.remove(pos);
                }
            }
            #[cfg(any(test, feature = "test-fixtures"))]
            self.legacy_hp_copy_completed(c);
        }
    }

    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState {
            hp_stream: self.hp_stream,
            be_kernels: Some(self.be_outstanding.iter().map(|(op, _)| *op).collect()),
            hp_kernels: Some(self.hp_outstanding.iter().map(|(op, _)| *op).collect()),
            be_duration: Some(self.be_duration),
            dur_threshold: Some(self.dur_threshold),
            hp_copies: Some(self.hp_copies()),
            ..PolicyDebugState::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_gpu::engine::{Completion, GpuEngine};
    use orion_gpu::kernel::KernelBuilder;
    use orion_gpu::spec::GpuSpec;
    use orion_profiler::profile_workload;
    use orion_workloads::arrivals::ArrivalProcess;
    use orion_workloads::model::{ModelKind, Phase, Workload, WorkloadKind};
    use orion_workloads::ops::OpSpec;
    use orion_workloads::registry::inference_workload;

    use crate::client::{ClientSpec, ClientState};
    use crate::policy::Routed;

    fn state(spec: ClientSpec, gpu: &GpuSpec) -> ClientState {
        let profile = profile_workload(&spec.workload, gpu).unwrap().table();
        ClientState::new(spec, profile)
    }

    /// Starts a request and pushes ops until the cursor blocks or the
    /// request's trace is exhausted.
    fn stage(client: &mut ClientState) {
        client.on_arrival(SimTime::ZERO);
        client.try_start_request();
        while client.push_next().is_some() {}
    }

    fn route(comps: &[Completion], submissions: &[Routed]) -> Vec<RoutedCompletion> {
        comps
            .iter()
            .map(|c| {
                let r = submissions
                    .iter()
                    .find(|r| r.op == c.op)
                    .expect("completion for a submitted op");
                RoutedCompletion {
                    op: c.op,
                    client: r.client,
                    at: c.at,
                    is_kernel: r.is_kernel,
                    last_of_request: r.last_of_request,
                    request_id: r.request_id,
                }
            })
            .collect()
    }

    fn tiny_kernel(id: u32) -> OpSpec {
        OpSpec::Kernel(
            KernelBuilder::new(id, "k")
                .solo_duration(SimTime::from_micros(50))
                .utilization(0.5, 0.2)
                .build(),
        )
    }

    /// HP inference-style trace: one large blocking input copy, one kernel.
    fn hp_copy_workload() -> Workload {
        Workload {
            model: ModelKind::ResNet50,
            kind: WorkloadKind::Inference { batch: 1 },
            ops: vec![
                (
                    Phase::Forward,
                    OpSpec::H2D {
                        bytes: 64 << 20,
                        blocking: true,
                    },
                ),
                (Phase::Forward, tiny_kernel(0)),
            ],
            memory_footprint: 1 << 20,
        }
    }

    /// HP trace mixing copy semantics: an async prefetch *then* a blocking
    /// copy (the §5.1.3 ordering that exposed the historical gate drift).
    fn hp_mixed_copy_workload() -> Workload {
        Workload {
            model: ModelKind::ResNet50,
            kind: WorkloadKind::Inference { batch: 1 },
            ops: vec![
                (
                    Phase::Forward,
                    OpSpec::H2D {
                        bytes: 1 << 20,
                        blocking: false,
                    },
                ),
                (
                    Phase::Forward,
                    OpSpec::H2D {
                        bytes: 64 << 20,
                        blocking: true,
                    },
                ),
                (Phase::Forward, tiny_kernel(0)),
            ],
            memory_footprint: 1 << 20,
        }
    }

    /// BE trace whose head is an async memcpy (the op the PCIe gate stalls).
    fn be_copy_workload() -> Workload {
        Workload {
            model: ModelKind::MobileNetV2,
            kind: WorkloadKind::Training { batch: 1 },
            ops: vec![
                (
                    Phase::Forward,
                    OpSpec::H2D {
                        bytes: 1 << 20,
                        blocking: false,
                    },
                ),
                (Phase::Forward, tiny_kernel(10)),
            ],
            memory_footprint: 1 << 20,
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let c = OrionConfig::default();
        assert!(c.use_stream_priorities && c.use_profile_check && c.use_sm_check);
        assert_eq!(c.dur_threshold_frac, Some(0.025));
        assert_eq!(c.sm_threshold, None);
    }

    #[test]
    fn profile_gate_logic() {
        use ResourceProfile::*;
        assert!(Orion::different_profiles(ComputeBound, MemoryBound));
        assert!(Orion::different_profiles(MemoryBound, ComputeBound));
        assert!(Orion::different_profiles(ComputeBound, Unknown));
        assert!(Orion::different_profiles(Unknown, MemoryBound));
        assert!(!Orion::different_profiles(ComputeBound, ComputeBound));
        assert!(!Orion::different_profiles(MemoryBound, MemoryBound));
    }

    #[test]
    fn schedule_be_gates() {
        let mut o = Orion::new(OrionConfig::default());
        o.sm_threshold = 80;
        // No HP running: everything goes.
        assert!(o.schedule_be(ResourceProfile::ComputeBound, 100, SimTime::ZERO, true));
        // HP compute kernel running: only small, memory/unknown kernels.
        o.hp_outstanding.push_back((OpId(1), ResourceProfile::ComputeBound));
        assert!(o.schedule_be(ResourceProfile::MemoryBound, 40, SimTime::ZERO, true));
        assert!(!o.schedule_be(ResourceProfile::MemoryBound, 80, SimTime::ZERO, true), "sm gate");
        assert!(
            !o.schedule_be(ResourceProfile::ComputeBound, 40, SimTime::ZERO, true),
            "profile gate"
        );
        assert!(o.schedule_be(ResourceProfile::Unknown, 40, SimTime::ZERO, true));
    }

    #[test]
    fn unprofiled_kernels_never_coscheduled_with_hp() {
        let mut o = Orion::new(OrionConfig::default());
        o.sm_threshold = 80;
        // HP idle: unprofiled best-effort kernels may run solo.
        assert!(o.schedule_be(ResourceProfile::Unknown, 0, SimTime::ZERO, false));
        // HP active: a *profiled* Unknown-profile kernel is optimistically
        // allowed (§5.2), but an unprofiled one is conservatively blocked
        // even though it would pass every individual gate.
        o.hp_outstanding.push_back((OpId(1), ResourceProfile::ComputeBound));
        assert!(o.schedule_be(ResourceProfile::Unknown, 0, SimTime::ZERO, true));
        assert!(!o.schedule_be(ResourceProfile::Unknown, 0, SimTime::ZERO, false));
        // Conservatism is unconditional: disabling both gates changes nothing.
        let mut o = Orion::new(OrionConfig {
            use_profile_check: false,
            use_sm_check: false,
            ..OrionConfig::default()
        });
        o.hp_outstanding.push_back((OpId(1), ResourceProfile::ComputeBound));
        assert!(!o.schedule_be(ResourceProfile::Unknown, 0, SimTime::ZERO, false));
    }

    #[test]
    fn offpeak_slice_frees_only_true_opposites() {
        use ResourceProfile::*;
        let ms = SimTime::from_millis;
        let mut o = Orion::new(OrionConfig::serving());
        // No HP running: everything goes, nothing draws on the slice.
        assert!(o.schedule_be(MemoryBound, 80, ms(5), true));
        assert!(!o.draws_slice(MemoryBound));
        // A memory-bound decode kernel runs with a 1 ms slice left.
        o.hp_outstanding.push_back((OpId(1), MemoryBound));
        o.slice = ms(1);
        // The true opposite overlaps freely, however long.
        assert!(!o.draws_slice(ComputeBound));
        assert!(o.schedule_be(ComputeBound, 80, ms(5), true));
        // Same-profile and Unknown kernels share the slice.
        assert!(o.draws_slice(MemoryBound) && o.draws_slice(Unknown));
        assert!(o.schedule_be(Unknown, 80, SimTime::from_micros(600), true));
        o.slice_spent = SimTime::from_micros(500);
        assert!(o.schedule_be(MemoryBound, 80, SimTime::from_micros(500), true));
        assert!(!o.schedule_be(Unknown, 80, SimTime::from_micros(600), true));
        // Without the duty, Listing 1 lets the Unknown kernel overlap.
        let mut o = Orion::new(OrionConfig::profiles_only());
        o.hp_outstanding.push_back((OpId(1), MemoryBound));
        assert!(o.schedule_be(Unknown, 80, ms(5), true));
        assert!(!o.schedule_be(MemoryBound, 80, ms(5), true));
        assert_eq!(OrionConfig::default().offpeak_duty, None);
    }

    #[test]
    fn ablation_configs_toggle_gates() {
        let mut o = Orion::new(OrionConfig::profiles_only());
        o.sm_threshold = 10;
        o.hp_outstanding.push_back((OpId(1), ResourceProfile::ComputeBound));
        // SM check disabled: large opposite-profile kernels pass.
        assert!(o.schedule_be(ResourceProfile::MemoryBound, 80, SimTime::ZERO, true));

        let mut o = Orion::new(OrionConfig {
            use_profile_check: false,
            ..OrionConfig::default()
        });
        o.sm_threshold = 80;
        o.hp_outstanding.push_back((OpId(1), ResourceProfile::ComputeBound));
        // Profile check disabled: same-profile kernels pass if small.
        assert!(o.schedule_be(ResourceProfile::ComputeBound, 40, SimTime::ZERO, true));
    }

    #[test]
    fn multi_hp_clients_share_one_stream_and_min_threshold() {
        let spec = GpuSpec::v100_16gb();
        let mut gpu = GpuEngine::new(spec.clone(), false);
        // Two HP clients with different solo latencies (MobileNetV2 is the
        // faster, latency-tighter one).
        let mut clients = vec![
            state(
                ClientSpec::high_priority(
                    inference_workload(ModelKind::ResNet50),
                    ArrivalProcess::ClosedLoop,
                ),
                &spec,
            ),
            state(
                ClientSpec::high_priority(
                    inference_workload(ModelKind::MobileNetV2),
                    ArrivalProcess::ClosedLoop,
                ),
                &spec,
            ),
        ];
        let expected = clients
            .iter()
            .map(|c| c.profile.request_latency.mul_f64(0.025))
            .min()
            .unwrap();

        let mut o = Orion::new(OrionConfig::default());
        let mut submissions = Vec::new();
        let mut ctx = SchedCtx {
            now: SimTime::ZERO,
            gpu: &mut gpu,
            clients: &mut clients,
            submissions: &mut submissions,
        };
        o.setup(&mut ctx);

        // One shared HP stream: the next stream created gets id 1, proving
        // setup made exactly one (the overwrite bug made one per HP client,
        // stranding the first client's ops on an orphaned stream).
        assert_eq!(o.debug_state().hp_stream, Some(StreamId(0)));
        assert_eq!(
            ctx.gpu.create_stream(StreamPriority::DEFAULT),
            StreamId(1),
            "setup must create exactly one stream for two HP clients"
        );
        // The tightest client's DUR_THRESHOLD governs (the overwrite bug
        // kept whichever client happened to be listed last).
        assert_eq!(o.dur_threshold(), expected);
        assert!(o.dur_threshold() < SimTime::MAX);
    }

    #[test]
    fn solo_latency_estimate_replaces_cold_start_threshold() {
        use orion_profiler::ProfileTable;
        let spec = GpuSpec::v100_16gb();
        let mut gpu = GpuEngine::new(spec.clone(), false);
        // Cold start: the HP client has an empty profile table, so setup
        // seeds a ZERO threshold (at most one BE kernel outstanding).
        let mut clients = vec![
            ClientState::new(
                ClientSpec::high_priority(
                    inference_workload(ModelKind::ResNet50),
                    ArrivalProcess::ClosedLoop,
                )
                .unprofiled(),
                ProfileTable::default(),
            ),
            state(
                ClientSpec::best_effort(be_copy_workload(), ArrivalProcess::ClosedLoop),
                &spec,
            ),
        ];
        let mut o = Orion::new(OrionConfig::default());
        let mut submissions = Vec::new();
        let mut ctx = SchedCtx {
            now: SimTime::ZERO,
            gpu: &mut gpu,
            clients: &mut clients,
            submissions: &mut submissions,
        };
        o.setup(&mut ctx);
        assert_eq!(o.dur_threshold(), SimTime::ZERO, "cold start throttles hard");

        // An online estimate replaces the zero — a min would keep it stuck.
        o.on_solo_latency_estimate(0, SimTime::from_millis(40));
        assert_eq!(o.dur_threshold(), SimTime::from_millis(1));
        // Estimates refine in both directions.
        o.on_solo_latency_estimate(0, SimTime::from_millis(80));
        assert_eq!(o.dur_threshold(), SimTime::from_millis(2));
        // Estimates for clients setup never registered as HP are ignored.
        o.on_solo_latency_estimate(1, SimTime::from_millis(4));
        assert_eq!(o.dur_threshold(), SimTime::from_millis(2));
        // With the throttle ablated, estimates change nothing.
        let mut o = Orion::new(OrionConfig {
            dur_threshold_frac: None,
            ..OrionConfig::default()
        });
        o.on_solo_latency_estimate(0, SimTime::from_millis(40));
        assert_eq!(o.dur_threshold(), SimTime::MAX);
    }

    #[test]
    fn pcie_gate_blocks_be_memcpy_while_hp_blocking_copy_in_flight() {
        let spec = GpuSpec::v100_16gb();
        let mut gpu = GpuEngine::new(spec.clone(), false);
        let mut clients = vec![
            state(
                ClientSpec::high_priority(hp_copy_workload(), ArrivalProcess::ClosedLoop),
                &spec,
            ),
            state(
                ClientSpec::best_effort(be_copy_workload(), ArrivalProcess::ClosedLoop),
                &spec,
            ),
        ];
        let mut o = Orion::new(OrionConfig {
            pcie_aware_memcpy: true,
            ..OrionConfig::default()
        });
        let mut submissions = Vec::new();
        {
            let mut ctx = SchedCtx {
                now: SimTime::ZERO,
                gpu: &mut gpu,
                clients: &mut clients,
                submissions: &mut submissions,
            };
            o.setup(&mut ctx);
        }
        stage(&mut clients[0]); // HP queues its blocking copy, then blocks.
        stage(&mut clients[1]); // BE queues its async copy + kernel.

        {
            let mut ctx = SchedCtx {
                now: SimTime::ZERO,
                gpu: &mut gpu,
                clients: &mut clients,
                submissions: &mut submissions,
            };
            o.schedule(&mut ctx);
        }
        // Only the HP blocking copy went to the device; the BE memcpy (and
        // the kernel queued behind it) are withheld by the PCIe gate.
        assert_eq!(submissions.len(), 1, "submissions: {submissions:?}");
        assert_eq!(submissions[0].client, 0);
        assert_eq!(o.debug_state().hp_copies, Some(1));
        assert_eq!(clients[1].queue_depth(), 2, "BE ops withheld");

        // The HP copy completes; the gate opens and the BE ops flow.
        gpu.advance_to(SimTime::from_secs(1));
        let comps = gpu.drain_completions();
        assert_eq!(comps.len(), 1);
        let routed = route(&comps, &submissions);
        {
            let mut ctx = SchedCtx {
                now: SimTime::from_secs(1),
                gpu: &mut gpu,
                clients: &mut clients,
                submissions: &mut submissions,
            };
            o.on_completions(&routed, &mut ctx);
            o.schedule(&mut ctx);
        }
        assert_eq!(o.debug_state().hp_copies, Some(0));
        assert!(
            submissions.iter().any(|r| r.client == 1 && !r.is_kernel),
            "BE memcpy submitted once the PCIe link is free: {submissions:?}"
        );
    }

    #[test]
    fn injected_counter_drift_collapses_the_pcie_gate() {
        // The historical bug: an async HP copy completing decremented the
        // gate counter even though only blocking copies incremented it, so
        // the gate read 0 while a blocking HP copy was still in flight. The
        // id-set fix keeps the gate up; the injection flag reproduces the
        // collapse for the oracle's stress harness.
        for (inject, expect_gate_open) in [(false, false), (true, true)] {
            let spec = GpuSpec::v100_16gb();
            let mut gpu = GpuEngine::new(spec.clone(), false);
            let mut clients = vec![
                state(
                    ClientSpec::high_priority(
                        hp_mixed_copy_workload(),
                        ArrivalProcess::ClosedLoop,
                    ),
                    &spec,
                ),
                state(
                    ClientSpec::best_effort(be_copy_workload(), ArrivalProcess::ClosedLoop),
                    &spec,
                ),
            ];
            let mut o = Orion::new(OrionConfig {
                pcie_aware_memcpy: true,
                inject_hp_copy_drift: inject,
                ..OrionConfig::default()
            });
            let mut submissions = Vec::new();
            {
                let mut ctx = SchedCtx {
                    now: SimTime::ZERO,
                    gpu: &mut gpu,
                    clients: &mut clients,
                    submissions: &mut submissions,
                };
                o.setup(&mut ctx);
            }
            // HP queues the async prefetch and the blocking copy behind it.
            stage(&mut clients[0]);
            {
                let mut ctx = SchedCtx {
                    now: SimTime::ZERO,
                    gpu: &mut gpu,
                    clients: &mut clients,
                    submissions: &mut submissions,
                };
                o.schedule(&mut ctx);
            }
            assert_eq!(submissions.len(), 2, "both HP copies submitted");
            assert_eq!(o.debug_state().hp_copies, Some(1));

            // Advance just far enough for the small async copy to finish;
            // the large blocking copy is still on the PCIe link.
            gpu.advance_to(SimTime::from_millis(1));
            let comps = gpu.drain_completions();
            assert_eq!(comps.len(), 1, "only the async copy finished");
            let routed = route(&comps, &submissions);
            assert!(!gpu.fully_idle(), "blocking copy still in flight");

            stage(&mut clients[1]); // BE wants to memcpy now.
            {
                let mut ctx = SchedCtx {
                    now: SimTime::from_millis(1),
                    gpu: &mut gpu,
                    clients: &mut clients,
                    submissions: &mut submissions,
                };
                o.on_completions(&routed, &mut ctx);
                o.schedule(&mut ctx);
            }
            let be_copy_submitted = submissions.iter().any(|r| r.client == 1 && !r.is_kernel);
            if expect_gate_open {
                // Drifted counter hit zero: the gate wrongly opens.
                assert_eq!(o.debug_state().hp_copies, Some(0));
                assert!(be_copy_submitted, "drift lets the BE memcpy through");
            } else {
                // Fixed bookkeeping: the blocking copy still holds the gate.
                assert_eq!(o.debug_state().hp_copies, Some(1));
                assert!(!be_copy_submitted, "gate held: {submissions:?}");
            }
        }
    }
}
