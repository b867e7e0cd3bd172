//! GPU-sharing scheduling policies: Orion and every baseline of the paper.
//!
//! A [`Policy`] decides when operations move from per-client software queues
//! to GPU streams. The collocation world invokes [`Policy::schedule`] after
//! every state change (client pushed an op, GPU completed ops), which models
//! the paper's busy-polling scheduler thread without burning simulated time.

pub mod baselines;
pub mod orion;
pub mod reef;
pub mod ticktock;

use orion_desim::time::SimTime;
use orion_gpu::engine::{GpuEngine, OpId, OpKind};
use orion_gpu::error::GpuError;
use orion_gpu::kernel::ResourceProfile;
use orion_gpu::stream::StreamId;
use orion_workloads::model::Phase;
use orion_workloads::ops::OpSpec;

use crate::client::ClientState;

pub use orion::{Orion, OrionConfig};

/// An operation submitted to the GPU, with the routing metadata the world
/// needs to attribute its completion.
#[derive(Debug, Clone, Copy)]
pub struct Routed {
    /// GPU operation id.
    pub op: OpId,
    /// Index of the owning client.
    pub client: usize,
    /// Request the op belongs to.
    pub request_id: u64,
    /// Op index within the request.
    pub op_seq: u32,
    /// True for the request's final op.
    pub last_of_request: bool,
    /// True for kernels.
    pub is_kernel: bool,
    /// Profiled duration (kernels).
    pub expected_dur: SimTime,
    /// Profiled resource class.
    pub profile: ResourceProfile,
    /// Profiled SM demand (kernels).
    pub sm_needed: u32,
    /// Training phase.
    pub phase: Phase,
    /// False for kernels missing from the offline profile (scheduled
    /// conservatively, see DESIGN.md §11).
    pub profiled: bool,
}

/// A completion routed back to its client, passed to
/// [`Policy::on_completions`].
#[derive(Debug, Clone)]
pub struct RoutedCompletion {
    /// GPU operation id.
    pub op: OpId,
    /// Index of the owning client.
    pub client: usize,
    /// Completion time.
    pub at: SimTime,
    /// True for kernels.
    pub is_kernel: bool,
    /// True for the request's final op.
    pub last_of_request: bool,
    /// Request id.
    pub request_id: u64,
}

/// Structured snapshot of a policy's internal bookkeeping, consumed by the
/// validation oracle ([`crate::validate`]).
///
/// Every field is optional: `None` means "this policy does not track that
/// quantity" and the oracle skips the corresponding invariant. A `Some`
/// value is a *claim* that the oracle cross-checks against the engine's
/// ground-truth event log after every scheduling round — set a field only if
/// the policy really maintains it.
#[derive(Debug, Clone, Default)]
pub struct PolicyDebugState {
    /// The dedicated high-priority stream, when the policy routes by class.
    /// Claiming it arms the BE-never-on-HP-stream invariant.
    pub hp_stream: Option<StreamId>,
    /// Op ids believed to be outstanding best-effort kernels.
    pub be_kernels: Option<Vec<OpId>>,
    /// Op ids believed to be outstanding high-priority kernels.
    pub hp_kernels: Option<Vec<OpId>>,
    /// Cumulative expected-duration counter (Listing 1's `be_duration`).
    pub be_duration: Option<SimTime>,
    /// Absolute `DUR_THRESHOLD` in force (`SimTime::MAX` = throttle off).
    pub dur_threshold: Option<SimTime>,
    /// High-priority blocking copies believed in flight (§5.1.3 PCIe gate).
    pub hp_copies: Option<usize>,
    /// Count of outstanding best-effort ops of any kind (REEF's queue bound).
    pub be_inflight: Option<usize>,
    /// Per-client outstanding op ids (Tick-Tock's barrier bookkeeping).
    pub per_client: Option<Vec<Vec<OpId>>>,
    /// Temporal sharing: the `(client, request)` that owns the device. The
    /// outer `Some` claims exclusive-ownership tracking; the inner `Option`
    /// is the owner itself (`None` = device believed idle).
    pub exclusive_owner: Option<Option<(usize, u64)>>,
}

/// Mutable view handed to policies: the device, the client queues, and the
/// submission log the world uses for completion routing.
pub struct SchedCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The shared GPU device.
    pub gpu: &'a mut GpuEngine,
    /// All clients (index-stable across the run).
    pub clients: &'a mut [ClientState],
    /// Submission log (appended by [`SchedCtx::submit_head`]).
    pub submissions: &'a mut Vec<Routed>,
}

impl SchedCtx<'_> {
    /// Pops the head op of `client`'s software queue and submits it on
    /// `stream`. Returns the routing record, or `None` when the queue is
    /// empty — or when the device is sticky-faulted, in which case the op is
    /// put back at the queue head for resubmission after recovery.
    ///
    /// # Panics
    ///
    /// Panics if the GPU rejects the submission for any non-fault reason
    /// (unknown stream / invalid kernel), which indicates a policy bug
    /// rather than a runtime condition.
    pub fn submit_head(&mut self, client: usize, stream: StreamId) -> Option<Routed> {
        let op = self.clients[client].pop()?;
        let c = &self.clients[client];
        // Workload drift: from the drift instant on, the client's kernels
        // take `factor ×` their nominal solo time. Applied here, at routing
        // time, so kernels already on the device keep their old duration and
        // the shift is sharp at the configured sim time.
        let drift_scale = c.spec.drift.map_or(1.0, |d| d.scale_at(self.now));
        // The queue holds ops of the in-flight request only, so the op is
        // read in place from that request's trace.
        let submitted = match &c.workload_of(op.request_id).ops[op.op_seq as usize].1 {
            OpSpec::Kernel(k) if drift_scale != 1.0 => {
                // Drifted kernels get a private, rescaled description.
                let mut k = (**k).clone();
                k.solo_duration = k.solo_duration.mul_f64(drift_scale);
                self.gpu.submit_kernel(stream, &std::sync::Arc::new(k))
            }
            // Un-drifted kernels go by reference to the shared prototype.
            OpSpec::Kernel(k) => self.gpu.submit_kernel(stream, k),
            &OpSpec::H2D { bytes, blocking } => self
                .gpu
                .submit(stream, OpKind::MemcpyH2D { bytes, blocking }),
            &OpSpec::D2H { bytes, blocking } => self
                .gpu
                .submit(stream, OpKind::MemcpyD2H { bytes, blocking }),
        };
        let op_id = match submitted {
            Ok(id) => id,
            Err(GpuError::DeviceFault) => {
                // Sticky device fault raced the scheduling round: keep the
                // op queued so the recovery supervisor resubmits it in
                // order after the reset.
                self.clients[client].requeue_front(op);
                return None;
            }
            Err(e) => panic!("policy submitted an invalid op: {e}"),
        };
        let routed = Routed {
            op: op_id,
            client,
            request_id: op.request_id,
            op_seq: op.op_seq,
            last_of_request: op.last_of_request,
            is_kernel: op.is_kernel,
            expected_dur: op.expected_dur,
            profile: op.profile,
            sm_needed: op.sm_needed,
            phase: op.phase,
            profiled: op.profiled,
        };
        self.submissions.push(routed);
        Some(routed)
    }
}

/// Indices of `clients` by priority class: `(high_priority, best_effort)`.
/// Client classes are fixed for a run, so policies compute this once in
/// [`Policy::setup`].
pub(crate) fn split_clients(clients: &[ClientState]) -> (Vec<usize>, Vec<usize>) {
    let mut hp = Vec::new();
    let mut be = Vec::new();
    for (i, c) in clients.iter().enumerate() {
        match c.priority() {
            crate::client::ClientPriority::HighPriority => hp.push(i),
            crate::client::ClientPriority::BestEffort => be.push(i),
        }
    }
    (hp, be)
}

/// A GPU-sharing scheduling policy.
pub trait Policy: Send {
    /// Short name for tables and logs.
    fn name(&self) -> &'static str;

    /// One-time setup: create streams, read profiles.
    fn setup(&mut self, ctx: &mut SchedCtx);

    /// Drains client queues according to the policy. Called after every
    /// state change; must be idempotent when nothing can be scheduled.
    fn schedule(&mut self, ctx: &mut SchedCtx);

    /// Observes completions (before the follow-up [`Policy::schedule`]).
    fn on_completions(&mut self, completions: &[RoutedCompletion], ctx: &mut SchedCtx) {
        let _ = (completions, ctx);
    }

    /// Delivers an online estimate of a high-priority client's *solo*
    /// request latency (measured over windows with no best-effort work in
    /// flight). Policies that derive thresholds from offline solo latency
    /// (Orion's `DUR_THRESHOLD`, §5.1) should re-derive them from this
    /// estimate so cold-start runs — where the offline latency is zero —
    /// converge to the offline-quality threshold. Default: ignored.
    fn on_solo_latency_estimate(&mut self, client: usize, latency: SimTime) {
        let _ = (client, latency);
    }

    /// Notifies the policy that the recovery supervisor shed a request
    /// (quarantine, retry budget exhausted, or dead client). Policies that
    /// track per-request ownership (e.g. temporal sharing's exclusive owner)
    /// must release it here or they deadlock on a request that will never
    /// finish.
    fn on_request_shed(&mut self, client: usize, request_id: u64) {
        let _ = (client, request_id);
    }

    /// Snapshot of internal bookkeeping for the validation oracle.
    ///
    /// The default claims nothing (all fields `None`); the oracle then only
    /// applies policy-independent checks to the run. Policies that mirror
    /// device state (outstanding sets, duration counters, copy gates) should
    /// override this and expose those mirrors so drift is caught.
    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState::default()
    }
}

/// Constructible policy selector (the paper's baselines + Orion).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Temporal sharing: one request/iteration on the GPU at a time,
    /// high-priority first (§4 "Temporal sharing").
    Temporal,
    /// CUDA streams, same process, default priorities (§6.1 "GPU Streams").
    Streams,
    /// CUDA streams with a high-priority stream for the HP client
    /// (Figure 14's "Stream Priorities" step).
    StreamPriority,
    /// NVIDIA MPS-style process-parallel sharing (no GIL contention).
    Mps,
    /// REEF-N re-implementation (§6.1): HP bypass + size/latency-based
    /// best-effort selection, software queue depth 12.
    ReefN {
        /// Maximum outstanding best-effort ops on the device.
        queue_depth: usize,
    },
    /// Tick-Tock training collocation (offset fwd/bwd with barriers).
    TickTock,
    /// Orion (Listing 1), with ablation switches.
    Orion(OrionConfig),
}

impl PolicyKind {
    /// Orion with the paper's default configuration.
    pub fn orion_default() -> PolicyKind {
        PolicyKind::Orion(OrionConfig::default())
    }

    /// REEF-N with the paper's queue depth of 12.
    pub fn reef_default() -> PolicyKind {
        PolicyKind::ReefN { queue_depth: 12 }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Temporal => Box::new(baselines::Temporal::new()),
            PolicyKind::Streams => Box::new(baselines::PassThrough::streams()),
            PolicyKind::StreamPriority => Box::new(baselines::PassThrough::stream_priority()),
            PolicyKind::Mps => Box::new(baselines::PassThrough::mps()),
            PolicyKind::ReefN { queue_depth } => Box::new(reef::ReefN::new(*queue_depth)),
            PolicyKind::TickTock => Box::new(ticktock::TickTock::new()),
            PolicyKind::Orion(cfg) => Box::new(Orion::new(cfg.clone())),
        }
    }

    /// Whether client launch threads contend on a Python-GIL-style lock
    /// (multi-threaded single-process baselines, §6.2.1).
    pub fn gil_contention(&self) -> bool {
        matches!(self, PolicyKind::Streams | PolicyKind::StreamPriority)
    }

    /// Extra per-op interception overhead this policy adds on the client
    /// launch path (§6.5: Orion's wrappers cost < 1%).
    pub fn intercept_overhead(&self) -> SimTime {
        match self {
            PolicyKind::Orion(_) => SimTime::from_nanos(40),
            PolicyKind::ReefN { .. } => SimTime::from_nanos(40),
            _ => SimTime::ZERO,
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Temporal => "Temporal",
            PolicyKind::Streams => "Streams",
            PolicyKind::StreamPriority => "Stream-Priority",
            PolicyKind::Mps => "MPS",
            PolicyKind::ReefN { .. } => "REEF",
            PolicyKind::TickTock => "Tick-Tock",
            PolicyKind::Orion(_) => "Orion",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_and_label() {
        let kinds = [
            PolicyKind::Temporal,
            PolicyKind::Streams,
            PolicyKind::StreamPriority,
            PolicyKind::Mps,
            PolicyKind::reef_default(),
            PolicyKind::TickTock,
            PolicyKind::orion_default(),
        ];
        for k in kinds {
            let p = k.build();
            assert_eq!(p.name(), k.label());
        }
    }

    #[test]
    fn gil_only_for_threaded_baselines() {
        assert!(PolicyKind::Streams.gil_contention());
        assert!(PolicyKind::StreamPriority.gil_contention());
        assert!(!PolicyKind::Mps.gil_contention());
        assert!(!PolicyKind::orion_default().gil_contention());
    }

    #[test]
    fn orion_has_small_intercept_overhead() {
        let o = PolicyKind::orion_default().intercept_overhead();
        assert!(o > SimTime::ZERO);
        assert!(o < SimTime::from_micros(1));
        assert_eq!(PolicyKind::Mps.intercept_overhead(), SimTime::ZERO);
    }
}
