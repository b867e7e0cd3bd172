//! The policy-state oracle: a shadow invariant checker for scheduler
//! bookkeeping.
//!
//! Every policy in this reproduction keeps a *mirror* of device state — the
//! outstanding-kernel sets and `be_duration` counter behind Orion's
//! `DUR_THRESHOLD` throttle (paper §5.1.2, Listing 1), the `hp_copies` gate
//! of the §5.1.3 PCIe extension, REEF's queue-depth bound, Tick-Tock's
//! barrier sets. Scheduling decisions are only as correct as those mirrors,
//! and mirror bugs are silent: a counter that drifts from the device does
//! not crash, it just stops gating (or gates forever), and the damage shows
//! up as unexplained tail latency three experiments later.
//!
//! The [`Validator`] closes that loop. It replays the GPU engine's
//! ground-truth event log ([`EngineEvent`], enabled with
//! [`GpuEngine::enable_event_log`]) to reconstruct the true in-flight
//! operation set — who submitted each op, on which stream, blocking or not —
//! joins it with the world's routing records, and after every
//! `schedule()` / `on_completions()` round cross-checks the policy's own
//! claims (exposed via [`Policy::debug_state`]) against the truth:
//!
//! * **outstanding-set equality** — the policy's best-effort / high-priority
//!   outstanding kernel sets equal the true in-flight sets, op id by op id;
//! * **`be_duration` bounds** — the Listing 1 counter is at least the summed
//!   expected duration of truly outstanding best-effort kernels (it also
//!   retains already-finished work until its lazy reset, so it is a lower
//!   bound, not an equality) and overshoots `DUR_THRESHOLD` by at most one
//!   kernel;
//! * **`hp_copies`** — the PCIe gate counter equals the number of truly
//!   in-flight blocking high-priority copies;
//! * **BE-never-on-HP-stream** — no best-effort client op is ever submitted
//!   on the claimed high-priority stream;
//! * **quiescence** — whenever the device fully drains, every claimed
//!   outstanding set and gate counter is empty/zero (`be_duration` is exempt
//!   by design: Listing 1 resets it lazily, on the next over-threshold
//!   check, so a drained device may retain a stale-but-bounded value);
//! * **truth integrity** — engine submissions match routing records
//!   one-to-one, no op id completes twice or appears while live, and the
//!   engine reports idle exactly when the true in-flight set is empty.
//!
//! Violations carry the full provenance of the ops involved (client, stream,
//! kind, submission time) and are returned in
//! [`crate::world::RunResult::validation`]; in [`ValidateMode::Strict`] the
//! first violation panics with that provenance, which is what test
//! configurations use. The oracle never influences the simulation itself:
//! enabling it changes no schedule, timestamp, or result.
//!
//! [`EngineEvent`]: orion_gpu::engine::EngineEvent
//! [`GpuEngine::enable_event_log`]: orion_gpu::engine::GpuEngine::enable_event_log
//! [`Policy::debug_state`]: crate::policy::Policy::debug_state

use std::collections::HashMap;
use std::fmt;

use orion_desim::time::SimTime;
use orion_gpu::engine::{EngineEvent, EngineEventKind, OpId};
use orion_gpu::stream::StreamId;

use crate::client::ClientPriority;
use crate::policy::{PolicyDebugState, Routed};

/// When (and how loudly) the policy-state oracle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidateMode {
    /// Oracle disabled: the engine event log is never enabled and the run
    /// pays zero bookkeeping cost. Release benches use this.
    #[default]
    Off,
    /// Oracle enabled; violations are recorded into
    /// [`crate::world::RunResult::validation`] and the run continues. Used
    /// by harnesses that *expect* violations (drift-injection tests).
    Record,
    /// Oracle enabled; the first violation panics with full provenance.
    /// Test configurations default to this.
    Strict,
}

impl ValidateMode {
    /// True when the oracle runs at all.
    pub fn enabled(self) -> bool {
        self != ValidateMode::Off
    }
}

/// Ground truth about one in-flight operation, reconstructed from the
/// engine's event log and the world's routing records. This is the
/// provenance attached to violations.
#[derive(Debug, Clone)]
pub struct OpProvenance {
    /// Engine op id.
    pub op: OpId,
    /// Submitting client index.
    pub client: usize,
    /// Submitting client's scheduling class.
    pub priority: ClientPriority,
    /// Stream the op was submitted on.
    pub stream: StreamId,
    /// Engine op-kind label (`"kernel"`, `"memcpy_h2d"`, ...).
    pub label: &'static str,
    /// True for kernels.
    pub is_kernel: bool,
    /// True for synchronous (client-blocking) copies.
    pub blocking: bool,
    /// Profiled duration the scheduler budgeted with (kernels).
    pub expected_dur: SimTime,
    /// Device time of submission.
    pub submitted_at: SimTime,
    /// Client-side request the op belongs to.
    pub request_id: u64,
    /// Position of the op within its request.
    pub op_seq: u32,
}

impl fmt::Display for OpProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} ({}{}, client {} {:?}, stream {}, submitted {}, expected {})",
            self.op.0,
            self.label,
            if self.blocking { ", blocking" } else { "" },
            self.client,
            self.priority,
            self.stream.0,
            self.submitted_at,
            self.expected_dur,
        )
    }
}

/// One invariant violation: which policy, which invariant, when, and the op
/// provenance that proves it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulated time of the failing check round.
    pub at: SimTime,
    /// Policy under check.
    pub policy: &'static str,
    /// Stable invariant name (e.g. `"hp-copies"`, `"be-outstanding-set"`).
    pub invariant: &'static str,
    /// Human-readable account, including the provenance of involved ops.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} invariant `{}` violated: {}",
            self.at, self.policy, self.invariant, self.detail
        )
    }
}

/// Outcome of a validated run.
#[derive(Debug, Default)]
pub struct ValidationReport {
    /// All recorded violations, in detection order (capped; see `dropped`).
    pub violations: Vec<Violation>,
    /// Violations discarded after the cap (a systemic bug fires every
    /// round; keeping every instance would bloat long runs).
    pub dropped: u64,
    /// Check rounds executed.
    pub rounds: u64,
    /// Rounds observed with a fully drained device, where the quiescence
    /// invariant was checked.
    pub quiescence_checks: u64,
    /// Total ops tracked through their full submit → complete lifecycle.
    pub ops_tracked: u64,
    /// Device resets observed in the engine event log.
    pub device_resets: u64,
    /// Ops that finished with an injected-fault status.
    pub ops_faulted: u64,
    /// Ops killed by a sticky fault or device reset before finishing.
    pub ops_aborted: u64,
    /// Online-profiler admissions cross-checked against true durations.
    pub online_admissions: u64,
}

impl ValidationReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.dropped == 0
    }

    /// True when some violation of the named invariant was recorded.
    pub fn violated(&self, invariant: &str) -> bool {
        self.violations.iter().any(|v| v.invariant == invariant)
    }
}

/// Routing metadata staged by the world for ops it submitted, joined with
/// the engine's `Submitted` event to form an [`OpProvenance`].
#[derive(Debug, Clone, Copy)]
struct RouteMeta {
    client: usize,
    priority: ClientPriority,
    expected_dur: SimTime,
    request_id: u64,
    op_seq: u32,
}

/// Cap on recorded violations (see [`ValidationReport::dropped`]).
const MAX_VIOLATIONS: usize = 64;

/// The shadow invariant checker. See the module docs for the invariant
/// catalogue; drive it with [`Validator::observe_submission`] /
/// [`Validator::observe_engine_events`] / [`Validator::check_round`].
#[derive(Debug, Default)]
pub struct Validator {
    strict: bool,
    /// Routing metadata awaiting its engine `Submitted` event.
    pending_meta: HashMap<u64, RouteMeta>,
    /// Ground truth: ops submitted to the device and not yet completed.
    inflight: HashMap<u64, OpProvenance>,
    /// Largest expected duration of any best-effort kernel seen, bounding
    /// the one-kernel overshoot `be_duration` may legally accumulate.
    max_be_kernel_dur: SimTime,
    /// No-duplicate tracking across resets: `(client, request_id, op_seq)`
    /// of every live op. A second live submission of the same logical op is
    /// a duplicated resubmission.
    live_keys: HashMap<(usize, u64, u32), u64>,
    /// Faulted/aborted ops awaiting a recovery claim (requeue or shed) from
    /// the supervisor this round. Leftovers at `check_round` are lost ops.
    aborted_unclaimed: Vec<(usize, u64, u32, u64)>,
    report: ValidationReport,
}

impl Validator {
    /// Creates an oracle. `strict` panics on the first violation.
    pub fn new(strict: bool) -> Self {
        Validator {
            strict,
            ..Validator::default()
        }
    }

    /// Consumes the oracle, yielding its report.
    pub fn into_report(self) -> ValidationReport {
        self.report
    }

    /// Stages the routing record of an op the world just submitted. Must be
    /// called before the engine events of the same round are observed.
    pub fn observe_submission(&mut self, routed: &Routed, priority: ClientPriority) {
        self.pending_meta.insert(
            routed.op.0,
            RouteMeta {
                client: routed.client,
                priority,
                expected_dur: routed.expected_dur,
                request_id: routed.request_id,
                op_seq: routed.op_seq,
            },
        );
    }

    /// Replays a batch of engine ground-truth events (device-time order),
    /// maintaining the true in-flight set.
    pub fn observe_engine_events(&mut self, events: &[EngineEvent], policy: &'static str) {
        for ev in events {
            match &ev.kind {
                EngineEventKind::Submitted {
                    label,
                    is_kernel,
                    blocking,
                } => {
                    let Some(meta) = self.pending_meta.remove(&ev.op.0) else {
                        self.violation(
                            ev.at,
                            policy,
                            "unknown-submission",
                            format!(
                                "engine logged op {} ({label}) on stream {} with no \
                                 routing record — submitted outside SchedCtx::submit_head?",
                                ev.op.0, ev.stream.0
                            ),
                        );
                        continue;
                    };
                    let prov = OpProvenance {
                        op: ev.op,
                        client: meta.client,
                        priority: meta.priority,
                        stream: ev.stream,
                        label,
                        is_kernel: *is_kernel,
                        blocking: *blocking,
                        expected_dur: meta.expected_dur,
                        submitted_at: ev.at,
                        request_id: meta.request_id,
                        op_seq: meta.op_seq,
                    };
                    if *is_kernel && meta.priority == ClientPriority::BestEffort {
                        self.max_be_kernel_dur = self.max_be_kernel_dur.max(meta.expected_dur);
                    }
                    let key = (meta.client, meta.request_id, meta.op_seq);
                    if let Some(prior) = self.live_keys.insert(key, ev.op.0) {
                        self.violation(
                            ev.at,
                            policy,
                            "op-duplicated",
                            format!(
                                "client {} request {} op_seq {} submitted as op {} while already \
                                 live as op {prior} — duplicated across a recovery?",
                                meta.client, meta.request_id, meta.op_seq, ev.op.0
                            ),
                        );
                    }
                    if let Some(live) = self.inflight.insert(ev.op.0, prov) {
                        self.violation(
                            ev.at,
                            policy,
                            "duplicate-op-id",
                            format!("op id {} resubmitted while live: {live}", ev.op.0),
                        );
                    }
                }
                EngineEventKind::Completed => {
                    match self.inflight.remove(&ev.op.0) {
                        None => self.violation(
                            ev.at,
                            policy,
                            "unknown-completion",
                            format!("engine completed op {} which was not in flight", ev.op.0),
                        ),
                        Some(p) => {
                            self.live_keys.remove(&(p.client, p.request_id, p.op_seq));
                            self.report.ops_tracked += 1;
                        }
                    }
                }
                EngineEventKind::Faulted | EngineEventKind::Aborted => {
                    let faulted = ev.kind == EngineEventKind::Faulted;
                    match self.inflight.remove(&ev.op.0) {
                        None => self.violation(
                            ev.at,
                            policy,
                            "unknown-completion",
                            format!(
                                "engine {} op {} which was not in flight",
                                if faulted { "faulted" } else { "aborted" },
                                ev.op.0
                            ),
                        ),
                        Some(p) => {
                            self.live_keys.remove(&(p.client, p.request_id, p.op_seq));
                            if faulted {
                                self.report.ops_faulted += 1;
                            } else {
                                self.report.ops_aborted += 1;
                            }
                            // The supervisor must requeue or shed this op
                            // before the round's check, else it is lost.
                            self.aborted_unclaimed
                                .push((p.client, p.request_id, p.op_seq, ev.op.0));
                        }
                    }
                }
                EngineEventKind::DeviceReset => {
                    self.report.device_resets += 1;
                    // Every live op must have been aborted (and logged as
                    // such) before the reset event.
                    if !self.inflight.is_empty() {
                        let residue = self.sample_inflight(|_| true);
                        self.inflight.clear();
                        self.live_keys.clear();
                        self.violation(
                            ev.at,
                            policy,
                            "post-reset-residue",
                            format!("ops survived a device reset without aborting: {residue}"),
                        );
                    }
                }
            }
        }
    }

    /// Reports the supervisor's recovery actions for this round so the
    /// oracle can discharge faulted/aborted ops: `requeued` carries
    /// `(client, request_id, op_seq)` of ops deterministically resubmitted,
    /// `shed` carries `(client, request_id)` of requests dropped whole. A
    /// requeue with no matching aborted op is phantom; aborted ops neither
    /// requeued nor shed are flagged as lost in the next `check_round`.
    pub fn observe_recovery(
        &mut self,
        requeued: &[(usize, u64, u32)],
        shed: &[(usize, u64)],
        policy: &'static str,
        now: SimTime,
    ) {
        for &(client, request_id, op_seq) in requeued {
            let pos = self
                .aborted_unclaimed
                .iter()
                .position(|&(c, r, s, _)| (c, r, s) == (client, request_id, op_seq));
            match pos {
                Some(i) => {
                    self.aborted_unclaimed.swap_remove(i);
                }
                None => self.violation(
                    now,
                    policy,
                    "phantom-requeue",
                    format!(
                        "supervisor requeued client {client} request {request_id} op_seq \
                         {op_seq}, but no such op faulted or aborted"
                    ),
                ),
            }
        }
        for &(client, request_id) in shed {
            self.aborted_unclaimed
                .retain(|&(c, r, _, _)| (c, r) != (client, request_id));
        }
    }

    /// Cross-checks one online-profiler admission against ground truth: the
    /// learned solo duration must sit within `tolerance` (relative) of some
    /// plausible true solo duration. `true_durs` carries every candidate
    /// regime — a drifting client's pre- *and* post-drift durations — and
    /// the *minimum* relative error counts, because a kernel submitted
    /// before the drift boundary may legitimately complete (and be learned)
    /// after it; demanding a match against only the at-admission regime
    /// would flag that race as a violation.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_online_admission(
        &mut self,
        at: SimTime,
        policy: &'static str,
        client: usize,
        name: &str,
        learned: SimTime,
        true_durs: &[SimTime],
        tolerance: f64,
    ) {
        self.report.online_admissions += 1;
        let learned_ns = learned.as_nanos() as f64;
        let err = true_durs
            .iter()
            .filter(|d| !d.is_zero())
            .map(|d| (learned_ns - d.as_nanos() as f64).abs() / d.as_nanos() as f64)
            .fold(f64::INFINITY, f64::min);
        if err.is_finite() && err > tolerance {
            self.violation(
                at,
                policy,
                "online-admission-error",
                format!(
                    "client {client} kernel `{name}` admitted with learned solo duration \
                     {learned}, relative error {err:.3} vs true durations {true_durs:?} \
                     (tolerance {tolerance})"
                ),
            );
        }
    }

    /// Cross-checks the policy's claimed bookkeeping against ground truth.
    /// Call after every `schedule()` / `on_completions()` round, once the
    /// round's submissions and engine events have been observed.
    pub fn check_round(
        &mut self,
        now: SimTime,
        policy: &'static str,
        state: &PolicyDebugState,
        engine_idle: bool,
    ) {
        self.report.rounds += 1;

        // Truth integrity: every routing record must have produced an engine
        // submission by the end of the round.
        if !self.pending_meta.is_empty() {
            let ids: Vec<u64> = self.pending_meta.keys().copied().collect();
            self.pending_meta.clear();
            self.violation(
                now,
                policy,
                "missing-engine-event",
                format!("routing records without engine submissions: ops {ids:?}"),
            );
        }
        // No-lost-op: every faulted/aborted op must have been requeued or
        // shed by the supervisor within the same round.
        if !self.aborted_unclaimed.is_empty() {
            let lost: Vec<String> = self
                .aborted_unclaimed
                .drain(..)
                .map(|(c, r, s, op)| format!("client {c} request {r} op_seq {s} (op {op})"))
                .collect();
            self.violation(
                now,
                policy,
                "op-lost",
                format!(
                    "faulted/aborted ops neither requeued nor shed: {}",
                    lost.join(", ")
                ),
            );
        }
        // Truth integrity: the engine is idle exactly when nothing is truly
        // in flight (queued ops count as in flight).
        if engine_idle != self.inflight.is_empty() {
            self.violation(
                now,
                policy,
                "engine-sync",
                format!(
                    "engine fully_idle = {engine_idle} but true in-flight set has {} ops: {}",
                    self.inflight.len(),
                    self.sample_inflight(|_| true),
                ),
            );
        }

        // BE-never-on-HP-stream (paper §5: the HP stream is dedicated).
        if let Some(hp_stream) = state.hp_stream {
            let offenders = self.sample_inflight(|p| {
                p.priority == ClientPriority::BestEffort && p.stream == hp_stream
            });
            if !offenders.is_empty() {
                self.violation(
                    now,
                    policy,
                    "be-on-hp-stream",
                    format!("best-effort ops on HP stream {}: {offenders}", hp_stream.0),
                );
            }
        }

        // Outstanding-set equality for the kernel mirrors.
        if let Some(claimed) = &state.be_kernels {
            self.check_set_equality(now, policy, "be-outstanding-set", claimed, |p| {
                p.priority == ClientPriority::BestEffort && p.is_kernel
            });
        }
        if let Some(claimed) = &state.hp_kernels {
            self.check_set_equality(now, policy, "hp-outstanding-set", claimed, |p| {
                p.priority == ClientPriority::HighPriority && p.is_kernel
            });
        }

        // PCIe gate: claimed blocking-HP-copy count vs truth (§5.1.3).
        if let Some(claimed) = state.hp_copies {
            let truth: Vec<&OpProvenance> = self
                .inflight
                .values()
                .filter(|p| {
                    p.priority == ClientPriority::HighPriority && !p.is_kernel && p.blocking
                })
                .collect();
            if claimed != truth.len() {
                let detail = format!(
                    "policy counts {claimed} in-flight blocking HP copies, device has {}: {}",
                    truth.len(),
                    join(truth.iter().map(|p| p.to_string())),
                );
                self.violation(now, policy, "hp-copies", detail);
            }
        }

        // Listing 1 duration counter: lower-bounded by the truly outstanding
        // expected work, upper-bounded by DUR_THRESHOLD plus one kernel.
        if let Some(be_duration) = state.be_duration {
            let outstanding_sum = self
                .inflight
                .values()
                .filter(|p| p.priority == ClientPriority::BestEffort && p.is_kernel)
                .fold(SimTime::ZERO, |acc, p| acc + p.expected_dur);
            if be_duration < outstanding_sum {
                self.violation(
                    now,
                    policy,
                    "be-duration-lower-bound",
                    format!(
                        "be_duration = {be_duration} < {outstanding_sum}, the summed expected \
                         duration of truly outstanding BE kernels: {}",
                        self.sample_inflight(|p| {
                            p.priority == ClientPriority::BestEffort && p.is_kernel
                        }),
                    ),
                );
            }
            if let Some(threshold) = state.dur_threshold {
                if threshold < SimTime::MAX {
                    let bound = threshold + self.max_be_kernel_dur;
                    if be_duration > bound {
                        self.violation(
                            now,
                            policy,
                            "be-duration-overshoot",
                            format!(
                                "be_duration = {be_duration} exceeds DUR_THRESHOLD {threshold} \
                                 by more than the largest BE kernel ({}); bound {bound}",
                                self.max_be_kernel_dur
                            ),
                        );
                    }
                }
            }
        }

        // REEF: outstanding best-effort ops of any kind, as a count.
        if let Some(claimed) = state.be_inflight {
            let truth = self
                .inflight
                .values()
                .filter(|p| p.priority == ClientPriority::BestEffort)
                .count();
            if claimed != truth {
                self.violation(
                    now,
                    policy,
                    "be-inflight-count",
                    format!(
                        "policy counts {claimed} outstanding BE ops, device has {truth}: {}",
                        self.sample_inflight(|p| p.priority == ClientPriority::BestEffort),
                    ),
                );
            }
        }

        // Tick-Tock: per-client outstanding sets.
        if let Some(per_client) = &state.per_client {
            for (client, claimed) in per_client.iter().enumerate() {
                self.check_set_equality(now, policy, "per-client-set", claimed, |p| {
                    p.client == client
                });
            }
        }

        // Temporal sharing: all in-flight work belongs to the claimed owner.
        if let Some(owner) = state.exclusive_owner {
            let foreign = self.sample_inflight(|p| Some(p.client) != owner.map(|(c, _)| c));
            if !foreign.is_empty() {
                self.violation(
                    now,
                    policy,
                    "exclusive-owner",
                    format!("device owner is {owner:?} but other work is in flight: {foreign}"),
                );
            }
        }

        // Quiescence: a drained device means every mirror is empty/zero
        // (be_duration exempt — Listing 1 resets it lazily).
        if engine_idle && self.inflight.is_empty() {
            self.report.quiescence_checks += 1;
            let mut stale = Vec::new();
            match &state.be_kernels {
                Some(s) if !s.is_empty() => stale.push(format!("be_outstanding {s:?}")),
                _ => {}
            }
            match &state.hp_kernels {
                Some(s) if !s.is_empty() => stale.push(format!("hp_outstanding {s:?}")),
                _ => {}
            }
            match state.hp_copies {
                Some(n) if n > 0 => stale.push(format!("hp_copies {n}")),
                _ => {}
            }
            match state.be_inflight {
                Some(n) if n > 0 => stale.push(format!("be_inflight {n}")),
                _ => {}
            }
            if let Some(per_client) = &state.per_client {
                for (client, s) in per_client.iter().enumerate() {
                    if !s.is_empty() {
                        stale.push(format!("client {client} outstanding {s:?}"));
                    }
                }
            }
            if !stale.is_empty() {
                self.violation(
                    now,
                    policy,
                    "quiescence",
                    format!("device drained but mirrors retain: {}", stale.join("; ")),
                );
            }
        }
    }

    /// Set-equality check between a claimed op-id list and the in-flight ops
    /// matching `truth_filter`, reporting both directions of the symmetric
    /// difference with provenance.
    fn check_set_equality(
        &mut self,
        now: SimTime,
        policy: &'static str,
        invariant: &'static str,
        claimed: &[OpId],
        truth_filter: impl Fn(&OpProvenance) -> bool,
    ) {
        let mut missing: Vec<String> = Vec::new(); // in truth, not claimed
        for p in self.inflight.values().filter(|p| truth_filter(p)) {
            if !claimed.contains(&p.op) {
                missing.push(p.to_string());
            }
        }
        let mut phantom: Vec<u64> = Vec::new(); // claimed, not in truth
        for op in claimed {
            let truly = self.inflight.get(&op.0).is_some_and(&truth_filter);
            if !truly {
                phantom.push(op.0);
            }
        }
        if missing.is_empty() && phantom.is_empty() {
            return;
        }
        missing.sort();
        phantom.sort_unstable();
        self.violation(
            now,
            policy,
            invariant,
            format!(
                "claimed set diverges from device: missing [{}], phantom op ids {phantom:?}",
                missing.join(", "),
            ),
        );
    }

    /// Provenance of in-flight ops matching `filter`, formatted for details.
    fn sample_inflight(&self, filter: impl Fn(&OpProvenance) -> bool) -> String {
        let mut items: Vec<String> = self
            .inflight
            .values()
            .filter(|p| filter(p))
            .map(|p| p.to_string())
            .collect();
        items.sort();
        join(items.into_iter())
    }

    /// Records one violation; in strict mode, panics with it instead.
    pub(crate) fn violation(
        &mut self,
        at: SimTime,
        policy: &'static str,
        invariant: &'static str,
        detail: String,
    ) {
        let v = Violation {
            at,
            policy,
            invariant,
            detail,
        };
        if self.strict {
            panic!("policy-state oracle: {v}");
        }
        if self.report.violations.len() < MAX_VIOLATIONS {
            self.report.violations.push(v);
        } else {
            self.report.dropped += 1;
        }
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_gpu::engine::EngineEventKind as K;
    use orion_gpu::kernel::ResourceProfile;
    use orion_workloads::model::Phase;

    fn routed(op: u64, client: usize, dur_us: u64) -> Routed {
        Routed {
            op: OpId(op),
            client,
            request_id: 0,
            op_seq: 0,
            last_of_request: false,
            is_kernel: true,
            expected_dur: SimTime::from_micros(dur_us),
            profile: ResourceProfile::Unknown,
            sm_needed: 1,
            phase: Phase::Forward,
            profiled: true,
        }
    }

    fn submitted(op: u64, stream: u32, is_kernel: bool, blocking: bool) -> EngineEvent {
        EngineEvent {
            op: OpId(op),
            stream: StreamId(stream),
            at: SimTime::ZERO,
            kind: K::Submitted {
                label: if is_kernel { "kernel" } else { "memcpy_h2d" },
                is_kernel,
                blocking,
            },
        }
    }

    fn completed(op: u64) -> EngineEvent {
        EngineEvent {
            op: OpId(op),
            stream: StreamId(0),
            at: SimTime::from_micros(5),
            kind: K::Completed,
        }
    }

    #[test]
    fn tracks_lifecycle_and_catches_phantom_claims() {
        let mut v = Validator::new(false);
        v.observe_submission(&routed(3, 1, 100), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(3, 1, true, false)], "T");

        // Honest claim: clean round.
        let mut state = PolicyDebugState {
            be_kernels: Some(vec![OpId(3)]),
            ..PolicyDebugState::default()
        };
        v.check_round(SimTime::ZERO, "T", &state, false);
        assert!(v.report.violations.is_empty());

        // Phantom op id + missing the real one.
        state.be_kernels = Some(vec![OpId(9)]);
        v.check_round(SimTime::ZERO, "T", &state, false);
        assert!(v.report.violated("be-outstanding-set"));

        // After completion, claiming it again is phantom; empty is clean.
        v.observe_engine_events(&[completed(3)], "T");
        let clean = PolicyDebugState {
            be_kernels: Some(Vec::new()),
            ..PolicyDebugState::default()
        };
        let before = v.report.violations.len();
        v.check_round(SimTime::from_micros(5), "T", &clean, true);
        assert_eq!(v.report.violations.len(), before);
        let report = v.into_report();
        assert_eq!(report.ops_tracked, 1);
        assert!(report.quiescence_checks > 0);
    }

    #[test]
    fn hp_copies_mismatch_is_reported_with_provenance() {
        let mut v = Validator::new(false);
        let mut r = routed(7, 0, 0);
        r.is_kernel = false;
        v.observe_submission(&r, ClientPriority::HighPriority);
        v.observe_engine_events(&[submitted(7, 0, false, true)], "Orion");
        let state = PolicyDebugState {
            hp_copies: Some(0), // device truly has one blocking HP copy
            ..PolicyDebugState::default()
        };
        v.check_round(SimTime::ZERO, "Orion", &state, false);
        let report = v.into_report();
        assert!(report.violated("hp-copies"));
        let detail = &report.violations[0].detail;
        assert!(detail.contains("op 7"), "provenance missing: {detail}");
        assert!(detail.contains("blocking"), "provenance missing: {detail}");
    }

    #[test]
    fn be_on_hp_stream_detected() {
        let mut v = Validator::new(false);
        v.observe_submission(&routed(1, 2, 10), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(1, 0, true, false)], "Orion");
        let state = PolicyDebugState {
            hp_stream: Some(StreamId(0)),
            ..PolicyDebugState::default()
        };
        v.check_round(SimTime::ZERO, "Orion", &state, false);
        assert!(v.into_report().violated("be-on-hp-stream"));
    }

    #[test]
    fn quiescence_flags_stale_counters() {
        let mut v = Validator::new(false);
        let state = PolicyDebugState {
            hp_copies: Some(2),
            ..PolicyDebugState::default()
        };
        // Device idle, nothing in flight, yet the gate counter is stuck.
        v.check_round(SimTime::ZERO, "Orion", &state, true);
        let report = v.into_report();
        // The non-quiescence hp-copies equality check fires too; the point
        // here is the dedicated drained-device invariant.
        assert!(report.violated("quiescence"));
    }

    #[test]
    #[should_panic(expected = "policy-state oracle")]
    fn strict_mode_panics_on_first_violation() {
        let mut v = Validator::new(true);
        let state = PolicyDebugState {
            hp_copies: Some(1),
            ..PolicyDebugState::default()
        };
        v.check_round(SimTime::ZERO, "Orion", &state, true);
    }

    #[test]
    fn violation_cap_counts_drops() {
        let mut v = Validator::new(false);
        let state = PolicyDebugState {
            hp_copies: Some(1),
            ..PolicyDebugState::default()
        };
        for _ in 0..(MAX_VIOLATIONS + 10) {
            v.check_round(SimTime::ZERO, "Orion", &state, false);
        }
        let report = v.into_report();
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.dropped > 0);
        assert!(!report.is_clean());
    }

    fn ended(op: u64, kind: K) -> EngineEvent {
        EngineEvent {
            op: OpId(op),
            stream: StreamId(0),
            at: SimTime::from_micros(5),
            kind,
        }
    }

    #[test]
    fn aborted_op_without_recovery_is_lost() {
        let mut v = Validator::new(false);
        v.observe_submission(&routed(3, 1, 100), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(3, 1, true, false)], "T");
        v.observe_engine_events(&[ended(3, K::Aborted)], "T");
        v.check_round(SimTime::from_micros(5), "T", &PolicyDebugState::default(), true);
        let report = v.into_report();
        assert!(report.violated("op-lost"));
        assert_eq!(report.ops_aborted, 1);
    }

    #[test]
    fn requeued_and_shed_ops_are_discharged() {
        let mut v = Validator::new(false);
        let mut a = routed(3, 1, 100);
        a.request_id = 7;
        a.op_seq = 2;
        let mut b = routed(4, 2, 100);
        b.request_id = 9;
        v.observe_submission(&a, ClientPriority::HighPriority);
        v.observe_submission(&b, ClientPriority::BestEffort);
        v.observe_engine_events(
            &[submitted(3, 0, true, false), submitted(4, 1, true, false)],
            "T",
        );
        v.observe_engine_events(&[ended(3, K::Faulted), ended(4, K::Aborted)], "T");
        // HP op requeued, BE request shed whole.
        v.observe_recovery(&[(1, 7, 2)], &[(2, 9)], "T", SimTime::from_micros(5));
        v.check_round(SimTime::from_micros(5), "T", &PolicyDebugState::default(), true);
        let report = v.into_report();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.ops_faulted, 1);
        assert_eq!(report.ops_aborted, 1);
    }

    #[test]
    fn phantom_requeue_is_flagged() {
        let mut v = Validator::new(false);
        v.observe_recovery(&[(0, 1, 0)], &[], "T", SimTime::ZERO);
        assert!(v.into_report().violated("phantom-requeue"));
    }

    #[test]
    fn duplicated_logical_op_is_flagged() {
        let mut v = Validator::new(false);
        // The same (client, request, op_seq) submitted twice while live.
        v.observe_submission(&routed(3, 1, 100), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(3, 1, true, false)], "T");
        v.observe_submission(&routed(8, 1, 100), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(8, 1, true, false)], "T");
        assert!(v.into_report().violated("op-duplicated"));
    }

    #[test]
    fn reset_with_live_ops_is_residue() {
        let mut v = Validator::new(false);
        v.observe_submission(&routed(3, 1, 100), ClientPriority::BestEffort);
        v.observe_engine_events(&[submitted(3, 1, true, false)], "T");
        v.observe_engine_events(&[ended(u64::MAX, K::DeviceReset)], "T");
        let report = v.into_report();
        assert!(report.violated("post-reset-residue"));
        assert_eq!(report.device_resets, 1);
    }
}
