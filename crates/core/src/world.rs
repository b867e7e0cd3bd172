//! The collocation engine: clients + policy + GPU wired into a DES world.

use std::collections::BTreeMap;

use orion_desim::prelude::*;
use orion_desim::rng::cell_seed;
use orion_gpu::engine::{Completion, CompletionStatus, GpuEngine};
use orion_gpu::error::GpuError;
use orion_gpu::fault::FaultPlan;
use orion_gpu::spec::GpuSpec;
use orion_gpu::util::UtilSummary;
use orion_metrics::{LatencyRecorder, ThroughputCounter};
use orion_profiler::{kernel_profile, profile_workload, KernelProfile};
use orion_workloads::OpSpec;

use crate::client::{ClientPriority, ClientSpec, ClientState, RequestSource};
use crate::online::{OnlineReport, OnlineState, ProfileAction, ADMIT_TOLERANCE};
use crate::policy::{Policy, PolicyKind, Routed, RoutedCompletion, SchedCtx};
use crate::supervisor::{
    ClientFaultKind, FaultConfig, RobustnessReport, Supervisor, SupervisorConfig,
};
use crate::validate::{ValidateMode, ValidationReport, Validator};

/// Domain-separation tag deriving the device fault-plan seed from the run
/// seed (disjoint from the per-client arrival forks, which use small
/// indices).
const FAULT_SEED_TAG: u64 = 0xfa17_0000_0000_0001;

/// Configuration of one collocation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Device to share.
    pub spec: GpuSpec,
    /// Simulated duration of the run.
    pub horizon: SimTime,
    /// Leading window excluded from latency/throughput statistics.
    pub warmup: SimTime,
    /// Seed for the arrival processes.
    pub seed: u64,
    /// Record the full utilization timeline (figure experiments only).
    pub record_timeline: bool,
    /// Record per-operation execution spans (Chrome-trace export).
    pub record_trace: bool,
    /// Policy-state oracle mode (see [`crate::validate`]). When enabled, the
    /// engine's ground-truth event log is activated and every scheduling
    /// round is cross-checked against the policy's claimed bookkeeping. The
    /// oracle observes only — enabling it changes no scheduling decision,
    /// timestamp, or result.
    pub validate: ValidateMode,
    /// Deterministic fault injection + recovery supervisor tuning. The
    /// default ([`FaultConfig::none`]) injects nothing and arms no
    /// supervisor, leaving the run byte-identical to pre-fault builds.
    pub faults: FaultConfig,
    /// Online profiling (see [`crate::online`]): learn kernel profiles and
    /// the high-priority solo latency from the run itself. Off (the default)
    /// constructs no online state, leaving the run byte-identical to
    /// pre-online builds.
    pub online: bool,
}

impl RunConfig {
    /// The standard experiment configuration: V100, 12 s horizon, 2 s warmup.
    pub fn paper_default() -> Self {
        RunConfig {
            spec: GpuSpec::v100_16gb(),
            horizon: SimTime::from_secs(12),
            warmup: SimTime::from_secs(2),
            seed: 42,
            record_timeline: false,
            record_trace: false,
            validate: ValidateMode::Off,
            faults: FaultConfig::none(),
            online: false,
        }
    }

    /// A fast configuration for unit/integration tests (3 s horizon).
    pub fn quick_test() -> Self {
        RunConfig {
            spec: GpuSpec::v100_16gb(),
            horizon: SimTime::from_secs(3),
            warmup: SimTime::from_millis(500),
            seed: 42,
            record_timeline: false,
            record_trace: false,
            validate: ValidateMode::Strict,
            faults: FaultConfig::none(),
            online: false,
        }
    }

    /// Replaces the device spec.
    pub fn with_spec(mut self, spec: GpuSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Per-client outcome of a run (statistics exclude the warmup window).
#[derive(Debug)]
pub struct ClientResult {
    /// Workload label.
    pub label: String,
    /// Scheduling class.
    pub priority: ClientPriority,
    /// Request latencies.
    pub latency: LatencyRecorder,
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Requests (or training iterations) per second.
    pub throughput: f64,
}

/// Outcome of a collocation run.
#[derive(Debug)]
pub struct RunResult {
    /// Policy label.
    pub policy: &'static str,
    /// Per-client results, in client order.
    pub clients: Vec<ClientResult>,
    /// Device utilization averages over the whole run.
    pub utilization: UtilSummary,
    /// Resampled utilization timeline (when enabled), for figures.
    pub timeline: Vec<orion_gpu::util::UtilSample>,
    /// Per-operation execution trace (when enabled).
    pub trace: Option<orion_gpu::trace::ExecTrace>,
    /// Measurement window length.
    pub window: SimTime,
    /// Policy-state oracle report (when [`RunConfig::validate`] enabled it).
    pub validation: Option<ValidationReport>,
    /// Fault-and-recovery accounting (all zeros for a fault-free run).
    pub robustness: RobustnessReport,
    /// True when the device was still sticky-faulted at the horizon (the
    /// run *ended* in a faulted state, as opposed to faults that were
    /// recovered mid-run). The fleet control plane treats such a device as
    /// unhealthy when triaging episode outcomes.
    pub ended_faulted: bool,
    /// Online-profiler summary (when [`RunConfig::online`] enabled it).
    pub online: Option<OnlineReport>,
    /// Per-client profile tables as of the horizon (only populated when
    /// online profiling ran): offline entries plus everything the admission
    /// ladder learned. The fleet control plane carries these across epochs
    /// so re-placement is fed by learned profiles, not offline tables only.
    pub learned: Option<Vec<orion_profiler::ProfileTable>>,
    /// DES events dispatched over the run (host-cost counter; never part
    /// of any result file).
    pub sim_events: u64,
    /// Device operations completed over the run, any status (the engine's
    /// completion counter).
    pub ops_completed: u64,
    /// The engine's real completion scans (next-event queries its memo
    /// could not answer; host-cost counter).
    pub completion_scans: u64,
    /// Kernel submits the engine saw (host-cost counter).
    pub kernel_submits: u64,
    /// Kernel submits that missed the engine's descriptor index and
    /// validated a descriptor (host-cost counter).
    pub desc_intern_misses: u64,
    /// Interference-model evaluations: one per refresh that followed a
    /// change of the running kernel set and found two or more kernels
    /// running (host-cost counter).
    pub interference_evals: u64,
}

impl RunResult {
    /// The first high-priority client's result.
    pub fn hp(&self) -> &ClientResult {
        self.clients
            .iter()
            .find(|c| c.priority == ClientPriority::HighPriority)
            .unwrap_or(&self.clients[0])
    }

    /// Sum of best-effort client throughputs.
    pub fn be_throughput(&self) -> f64 {
        self.clients
            .iter()
            .filter(|c| c.priority == ClientPriority::BestEffort)
            .map(|c| c.throughput)
            .sum()
    }

    /// Aggregate throughput of all clients.
    pub fn total_throughput(&self) -> f64 {
        self.clients.iter().map(|c| c.throughput).sum()
    }
}

#[derive(Debug, Clone)]
enum Ev {
    /// A request arrives at an open-loop client.
    Arrival { client: usize },
    /// The client's launch thread pushes its next op.
    Push { client: usize },
    /// Start the next pending request (deferred closed-loop think time).
    StartRequest { client: usize },
    /// Wake-up at the GPU's next internal completion.
    GpuWake { token: u64 },
    /// Periodic recovery-supervisor scan (chaos runs only): op deadlines and
    /// client liveness.
    Watchdog,
    /// A quarantined client's backoff expired; re-admit it.
    Readmit { client: usize },
}

struct RouteInfo {
    client: usize,
    request_id: u64,
    op_seq: u32,
    last_of_request: bool,
    is_kernel: bool,
    /// Watchdog deadline: submit time + expected duration + op timeout
    /// (`SimTime::MAX` when no supervisor is armed).
    deadline: SimTime,
}

struct CollocationWorld<'s> {
    gpu: GpuEngine,
    clients: Vec<ClientState>,
    /// Generates client 0's requests when set (see [`RequestSource`]).
    source: Option<&'s mut dyn RequestSource>,
    policy: Option<Box<dyn Policy>>,
    /// Routing slab indexed by engine op id. The engine recycles an op's
    /// slot only after its completion is drained, and the world removes the
    /// route in that same drain, so a slot is vacant whenever it is reused.
    routes: Vec<Option<RouteInfo>>,
    /// Per-client count of routed ops still on the device.
    inflight: Vec<u32>,
    /// Token of the only valid pending `GpuWake`; older tokens are stale.
    wake_token: u64,
    /// Time of the valid pending `GpuWake`, if one is pending.
    wake_at: Option<SimTime>,
    /// Per-client launch cost on the client thread (overhead x GIL factor).
    launch_cost: Vec<SimTime>,
    /// The policy-state oracle, when enabled via [`RunConfig::validate`].
    validator: Option<Validator>,
    /// The recovery supervisor — armed only for chaos runs (device or
    /// client faults configured), so fault-free runs take zero new branches
    /// in the hot path.
    supervisor: Option<Supervisor>,
    /// Ops requeued by recovery since the last oracle round (claims for the
    /// no-op-lost rule).
    recovery_requeued: Vec<(usize, u64, u32)>,
    /// Requests shed by recovery since the last oracle round.
    recovery_shed: Vec<(usize, u64)>,
    /// Culprit attribution for a watchdog-initiated reset, consumed by the
    /// recovery pass that drains its aborts.
    pending_culprit: Option<usize>,
    /// The online profiler — armed only when [`RunConfig::online`] enables
    /// it, so profile-driven runs take zero new branches in the hot path.
    online: Option<OnlineState>,
    /// Persistent completion buffer ping-ponged with the engine's through
    /// [`GpuEngine::drain_completions_into`]: once both buffers have grown
    /// to the peak batch size, steady-state drains allocate nothing.
    completion_buf: Vec<Completion>,
    /// Reused per-round submission log handed to the policy.
    submissions: Vec<Routed>,
    /// Reused per-drain routed-completion buffer.
    routed: Vec<RoutedCompletion>,
}

impl CollocationWorld<'_> {
    fn run_policy(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.run_policy_with(now, sched, |_, _| {});
    }

    /// Runs the policy (optionally preceded by a completion callback that
    /// needs the same borrow split), then re-arms the GPU wake-up.
    fn run_policy_with(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        pre: impl FnOnce(&mut dyn Policy, &mut SchedCtx),
    ) {
        let mut policy = self.policy.take().expect("policy present");
        let mut submissions = std::mem::take(&mut self.submissions);
        submissions.clear();
        {
            let mut ctx = SchedCtx {
                now,
                gpu: &mut self.gpu,
                clients: &mut self.clients,
                submissions: &mut submissions,
            };
            pre(policy.as_mut(), &mut ctx);
            policy.schedule(&mut ctx);
        }
        self.policy = Some(policy);
        self.register(now, &submissions);
        if self.validator.is_some() {
            self.validate_round(now, &submissions);
        } else {
            // No oracle to consume the recovery claims; drop them so chaos
            // runs without validation don't accumulate them unboundedly.
            self.recovery_requeued.clear();
            self.recovery_shed.clear();
        }
        self.submissions = submissions;
        self.arm_wake(now, sched);
    }

    /// Feeds the oracle one scheduling round: the round's routing records,
    /// then the engine's ground-truth events, then a cross-check of the
    /// policy's claimed bookkeeping. Purely observational.
    fn validate_round(&mut self, now: SimTime, submissions: &[Routed]) {
        let Some(v) = self.validator.as_mut() else {
            return;
        };
        let policy = self.policy.as_ref().expect("policy present");
        let name = policy.name();
        for r in submissions {
            v.observe_submission(r, self.clients[r.client].priority());
        }
        let events = self.gpu.drain_events();
        v.observe_engine_events(&events, name);
        if !self.recovery_requeued.is_empty() || !self.recovery_shed.is_empty() {
            let requeued = std::mem::take(&mut self.recovery_requeued);
            let shed = std::mem::take(&mut self.recovery_shed);
            v.observe_recovery(&requeued, &shed, name, now);
        }
        v.check_round(now, name, &policy.debug_state(), self.gpu.fully_idle());
    }

    fn register(&mut self, now: SimTime, submissions: &[Routed]) {
        for r in submissions {
            let deadline = match &self.supervisor {
                Some(s) => now + r.expected_dur + s.cfg.op_timeout,
                None => SimTime::MAX,
            };
            let slot = r.op.0 as usize;
            if slot >= self.routes.len() {
                self.routes.resize_with(slot + 1, || None);
            }
            debug_assert!(self.routes[slot].is_none(), "op slot {slot} routed twice");
            self.routes[slot] = Some(RouteInfo {
                client: r.client,
                request_id: r.request_id,
                op_seq: r.op_seq,
                last_of_request: r.last_of_request,
                is_kernel: r.is_kernel,
                deadline,
            });
            self.inflight[r.client] += 1;
            if let Some(s) = self.supervisor.as_mut() {
                s.last_progress[r.client] = now;
            }
        }
    }

    /// Ensures a `GpuWake` is pending at the device's next event time.
    ///
    /// Every handler drains the device before anything else, so results
    /// depend only on *whether* some event exists at each device event
    /// time: when the valid pending wake is already at that time, a second
    /// one would be a stale no-op and is not scheduled.
    fn arm_wake(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if let Some(t) = self.gpu.next_event_time() {
            let at = t.max(now);
            if self.wake_at == Some(at) {
                return;
            }
            self.wake_token += 1;
            self.wake_at = Some(at);
            let token = self.wake_token;
            sched.schedule_at(at, Ev::GpuWake { token });
        }
    }

    /// Advances the GPU and processes any completions that occurred.
    fn drain_gpu(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.gpu.advance_to(now);
        let mut completions = std::mem::take(&mut self.completion_buf);
        self.gpu.drain_completions_into(&mut completions);
        if completions.is_empty() {
            self.completion_buf = completions;
            return;
        }
        let mut routed = std::mem::take(&mut self.routed);
        routed.clear();
        // Faulted/aborted ops, grouped per client in op_seq order for
        // deterministic resubmission.
        let mut failed: BTreeMap<usize, Vec<(u64, u32)>> = BTreeMap::new();
        // The client whose kernel raised a sticky fault this round.
        let mut culprit: Option<usize> = None;
        for c in &completions {
            let Some(info) = self.routes.get_mut(c.op.0 as usize).and_then(Option::take) else {
                continue;
            };
            self.inflight[info.client] -= 1;
            match c.status {
                CompletionStatus::Ok => {
                    let client = &mut self.clients[info.client];
                    let was_blocked = !client.can_push();
                    let finished = client.on_op_complete(
                        c.at,
                        info.request_id,
                        info.op_seq,
                        info.last_of_request,
                    );
                    if self.online.is_some() {
                        self.observe_online(c, &info, finished);
                    }
                    if let Some(s) = self.supervisor.as_mut() {
                        s.last_progress[info.client] = now;
                        if info.last_of_request {
                            s.forget_request(info.client, info.request_id);
                        }
                    }
                    if info.last_of_request {
                        // The next request starts now, or after closed-loop
                        // think time (its pending arrival timestamp may lie
                        // in the future).
                        self.restart_next_request(now, info.client, sched);
                    } else if was_blocked && self.clients[info.client].can_push() {
                        // A blocking copy finished: resume the launch thread.
                        sched.schedule_at(now, Ev::Push { client: info.client });
                    }
                }
                CompletionStatus::Faulted | CompletionStatus::Aborted => {
                    if let Some(o) = self.online.as_mut() {
                        // A retried op's request carries recovery latency on
                        // top of its solo latency: taint the sample.
                        o.note_op_interference(info.client, true);
                    }
                    if let Some(s) = self.supervisor.as_mut() {
                        if c.status == CompletionStatus::Faulted {
                            s.report.op_faults += 1;
                        } else {
                            s.report.ops_aborted += 1;
                        }
                    }
                    if c.status == CompletionStatus::Faulted
                        && info.is_kernel
                        && self.gpu.device_faulted()
                    {
                        culprit = Some(info.client);
                    }
                    failed
                        .entry(info.client)
                        .or_default()
                        .push((info.request_id, info.op_seq));
                    // Do NOT feed this into on_op_complete: the op did not
                    // run, so the client's blocked-on marker and request
                    // progress must stay put for the retry.
                }
            }
            routed.push(RoutedCompletion {
                op: c.op,
                client: info.client,
                at: c.at,
                is_kernel: info.is_kernel,
                // A failed final op must not look like a finished request to
                // policy mirrors (Temporal's ownership transfers on shed via
                // on_request_shed instead).
                last_of_request: info.last_of_request
                    && c.status == CompletionStatus::Ok,
                request_id: info.request_id,
            });
        }
        let mut shed = Vec::new();
        if !failed.is_empty() {
            self.recover(now, sched, failed, culprit, &mut shed);
        }
        // Solo-latency estimates learned from this round's completions reach
        // the policy before it schedules, so the refreshed DUR_THRESHOLD
        // governs this round's best-effort admissions.
        let estimates = self
            .online
            .as_mut()
            .map(OnlineState::take_estimates)
            .unwrap_or_default();
        self.run_policy_with(now, sched, |policy, ctx| {
            for &(client, est) in &estimates {
                policy.on_solo_latency_estimate(client, est);
            }
            policy.on_completions(&routed, ctx);
            for &(client, request_id) in &shed {
                policy.on_request_shed(client, request_id);
            }
        });
        // Hand the drained buffers back for the next cycle.
        self.completion_buf = completions;
        self.routed = routed;
    }

    /// Feeds one successful completion into the online profiler:
    /// best-effort occupancy bookkeeping, kernel-duration learning (with
    /// profile-table publication on admission and withdrawal on demotion),
    /// and clean high-priority solo-latency samples. `finished` carries the
    /// request latency when this op completed a whole request.
    fn observe_online(&mut self, c: &Completion, info: &RouteInfo, finished: Option<SimTime>) {
        let Some(online) = self.online.as_mut() else {
            return;
        };
        online.note_op_interference(info.client, c.interfered);
        // Kernel-duration learning: the measured span is a clean solo
        // sample exactly when the engine certifies the op never ran below
        // its solo rate.
        let mut action = None;
        if info.is_kernel {
            let workload = self.clients[info.client].workload_of(info.request_id);
            if let (OpSpec::Kernel(k), Some(dispatched)) =
                (&workload.ops[info.op_seq as usize].1, c.dispatched_at)
            {
                action = online
                    .observe_kernel(
                        info.client,
                        &k.name,
                        k.kernel_id,
                        c.at - dispatched,
                        c.interfered,
                    )
                    .map(|a| (a, k.clone()));
            }
        }
        if let Some((action, k)) = action {
            match action {
                ProfileAction::Publish { kernel_ids, mean } => {
                    if let Some(v) = self.validator.as_mut() {
                        // Around a drift boundary both regimes are plausible
                        // truths (see `observe_online_admission`).
                        let mut true_durs = vec![k.solo_duration];
                        if let Some(d) = self.clients[info.client].spec.drift {
                            let scaled = k.solo_duration.mul_f64(d.factor);
                            if scaled != k.solo_duration {
                                true_durs.push(scaled);
                            }
                        }
                        let policy = self.policy.as_ref().expect("policy present").name();
                        v.observe_online_admission(
                            c.at,
                            policy,
                            info.client,
                            &k.name,
                            mean,
                            &true_durs,
                            ADMIT_TOLERANCE,
                        );
                    }
                    let learned = kernel_profile(&k, mean, self.gpu.spec());
                    for id in kernel_ids {
                        self.clients[info.client].profile.insert(KernelProfile {
                            kernel_id: id,
                            ..learned.clone()
                        });
                    }
                }
                ProfileAction::Withdraw { kernel_ids } => {
                    for id in kernel_ids {
                        self.clients[info.client].profile.remove(id);
                    }
                }
            }
        }
        // Solo request latency for the DUR_THRESHOLD denominator.
        if let Some(latency) = finished {
            if self.clients[info.client].priority() == ClientPriority::HighPriority {
                online.observe_hp_request(info.client, c.at, latency);
            }
        }
    }

    /// Starts the client's next pending request (immediately or at its
    /// future arrival time). No-op for dead or quarantined clients.
    fn restart_next_request(&mut self, now: SimTime, client: usize, sched: &mut Scheduler<Ev>) {
        if let Some(s) = &self.supervisor {
            if s.dead[client] || s.is_suspended(client) {
                return;
            }
        }
        if client == 0 {
            if let Some(source) = self.source.as_deref_mut() {
                if let Some(workload) = source.next_request(now, &mut self.gpu) {
                    self.clients[0].start_request(now, workload);
                    sched.schedule_at(now, Ev::Push { client });
                }
                return;
            }
        }
        let c = &mut self.clients[client];
        match c.next_pending_at() {
            Some(at) if at <= now && c.try_start_request() => {
                sched.schedule_at(now, Ev::Push { client });
            }
            Some(at) if at > now => {
                sched.schedule_at(at, Ev::StartRequest { client });
            }
            _ => {}
        }
    }

    /// The recovery pass (DESIGN.md §11): runs after a scheduling round
    /// drained faulted/aborted completions. Resets a sticky device,
    /// quarantines or retries the culprit, and deterministically requeues
    /// every surviving client's aborted ops — high-priority clients first.
    fn recover(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<Ev>,
        mut failed: BTreeMap<usize, Vec<(u64, u32)>>,
        culprit: Option<usize>,
        shed: &mut Vec<(usize, u64)>,
    ) {
        let sticky = self.gpu.device_faulted();
        let culprit = culprit.or_else(|| self.pending_culprit.take());
        {
            let sup = self.supervisor.as_mut().expect("faults imply supervisor");
            if sticky {
                sup.report.device_faults += 1;
                sup.report.device_resets += 1;
            }
        }
        if sticky {
            self.gpu.reset_device();
        }
        for ops in failed.values_mut() {
            ops.sort_unstable();
        }
        let device_was_reset = sticky || culprit.is_some();
        // HP clients recover first: their aborted ops go back at queue heads
        // before any best-effort decision, so the next scheduling round
        // re-admits high-priority work ahead of best-effort work.
        let mut order: Vec<usize> = failed.keys().copied().collect();
        order.sort_by_key(|&c| {
            (
                self.clients[c].priority() != ClientPriority::HighPriority,
                c,
            )
        });
        for client_idx in order {
            let ops = failed.remove(&client_idx).expect("key from map");
            let is_culprit = device_was_reset && culprit == Some(client_idx);
            let request_id = ops[0].0;
            if is_culprit {
                let is_hp =
                    self.clients[client_idx].priority() == ClientPriority::HighPriority;
                let retry_ok = is_hp
                    && self
                        .supervisor
                        .as_mut()
                        .expect("supervisor")
                        .try_retry(client_idx, request_id);
                if retry_ok {
                    self.requeue_ops(client_idx, &ops);
                } else {
                    // Best-effort culprit: quarantine with exponential
                    // backoff. High-priority culprit over its retry budget:
                    // shed, but stay admitted.
                    self.shed_request(client_idx, request_id, shed);
                    if is_hp {
                        self.restart_next_request(now, client_idx, sched);
                    } else {
                        let sup = self.supervisor.as_mut().expect("supervisor");
                        sup.report.quarantines += 1;
                        let readmit_at = now + sup.next_backoff(client_idx);
                        sup.suspended_until[client_idx] = Some(readmit_at);
                        if self.clients[client_idx].spec.arrivals.is_closed_loop() {
                            self.clients[client_idx].enqueue_pending(readmit_at);
                        }
                        sched.schedule_at(readmit_at, Ev::Readmit { client: client_idx });
                    }
                }
            } else if device_was_reset {
                // Innocent victim of the reset: resubmit unconditionally.
                self.requeue_ops(client_idx, &ops);
            } else {
                // Non-sticky op fault (failed copy): bounded per-request
                // retry without touching the rest of the device.
                let retry_ok = self
                    .supervisor
                    .as_mut()
                    .expect("supervisor")
                    .try_retry(client_idx, request_id);
                if retry_ok {
                    self.requeue_ops(client_idx, &ops);
                } else {
                    self.shed_request(client_idx, request_id, shed);
                    self.restart_next_request(now, client_idx, sched);
                }
            }
        }
    }

    /// Puts a client's aborted ops back at its queue head, oldest first.
    fn requeue_ops(&mut self, client: usize, ops: &[(u64, u32)]) {
        let c = &mut self.clients[client];
        for &(request_id, op_seq) in ops.iter().rev() {
            let op = c.op_for(request_id, op_seq);
            c.requeue_front(op);
        }
        let sup = self.supervisor.as_mut().expect("supervisor");
        sup.report.resubmitted_ops += ops.len() as u64;
        self.recovery_requeued
            .extend(ops.iter().map(|&(r, s)| (client, r, s)));
    }

    /// Drops a client's in-flight request and records the shed.
    fn shed_request(&mut self, client: usize, request_id: u64, shed: &mut Vec<(usize, u64)>) {
        self.clients[client].shed_current();
        let sup = self.supervisor.as_mut().expect("supervisor");
        sup.report.shed_requests += 1;
        sup.forget_request(client, request_id);
        shed.push((client, request_id));
        self.recovery_shed.push((client, request_id));
    }

    /// The periodic watchdog (chaos runs only): detects stalled ops (reset +
    /// recover) and hung/crashed clients (shed their stuck requests).
    fn watchdog(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        // (a) Op deadline scan. One stalled op condemns the whole device —
        // the reset aborts everything, so handling the earliest (by
        // deadline, then op id as the tie-break) is enough.
        let stalled = self
            .routes
            .iter()
            .enumerate()
            .filter_map(|(op, r)| r.as_ref().map(|info| (op, info)))
            .filter(|(_, info)| info.deadline <= now)
            .map(|(op, info)| (info.deadline, op, info.client))
            .min();
        if let Some((_, _, client)) = stalled {
            let sup = self.supervisor.as_mut().expect("watchdog implies supervisor");
            sup.report.watchdog_stalls += 1;
            sup.report.device_resets += 1;
            self.pending_culprit = Some(client);
            self.gpu.reset_device();
            // Route the aborts through the normal recovery path.
            self.drain_gpu(now, sched);
        }
        // (b) Client liveness: a request is stuck when it is in flight with
        // no device ops, no queued ops, and a push cursor that cannot move.
        let mut shed = Vec::new();
        for i in 0..self.clients.len() {
            let c = &self.clients[i];
            let Some((request_id, _)) = c.current_progress() else {
                continue;
            };
            if c.can_push() || c.queue_depth() > 0 || self.inflight[i] > 0 {
                continue;
            }
            let sup = self.supervisor.as_ref().expect("supervisor");
            let stuck = sup.dead[i]
                || now.checked_sub(sup.last_progress[i]).is_some_and(|idle| {
                    idle > sup.cfg.client_timeout
                });
            if stuck {
                self.shed_request(i, request_id, &mut shed);
                // Hung clients are treated as dead from here on: their
                // pending arrivals are abandoned rather than re-stuck.
                self.supervisor.as_mut().expect("supervisor").dead[i] = true;
            }
        }
        if !shed.is_empty() {
            self.run_policy_with(now, sched, |policy, _ctx| {
                for &(client, request_id) in &shed {
                    policy.on_request_shed(client, request_id);
                }
            });
        }
    }

    /// Fires the client's configured lifecycle fault if its trigger point
    /// (request ordinal, op index) has been reached.
    fn maybe_fire_client_fault(&mut self, client: usize) {
        let Some(sup) = self.supervisor.as_mut() else {
            return;
        };
        if sup.fault_fired[client] {
            return;
        }
        let Some(f) = self.clients[client].spec.fault else {
            return;
        };
        let due = self.clients[client]
            .current_progress()
            .is_some_and(|(req, op)| (req, op) >= (f.at_request, f.after_ops));
        if !due {
            return;
        }
        sup.fault_fired[client] = true;
        match f.kind {
            ClientFaultKind::Crash => {
                sup.dead[client] = true;
                sup.report.client_crashes += 1;
                self.clients[client].halt();
            }
            ClientFaultKind::Hang => {
                sup.report.client_hangs += 1;
                self.clients[client].halt();
            }
            ClientFaultKind::SlowPoll { factor } => {
                sup.report.slow_polls += 1;
                self.launch_cost[client] = self.launch_cost[client] * u64::from(factor.max(1));
            }
        }
    }
}

impl World for CollocationWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        // Completions at or before `now` are always processed first so every
        // handler sees up-to-date queue/GPU state.
        self.drain_gpu(now, sched);
        let gated = |sup: &Option<Supervisor>, client: usize| -> (bool, bool) {
            sup.as_ref()
                .map_or((false, false), |s| (s.dead[client], s.is_suspended(client)))
        };
        match ev {
            Ev::Arrival { client } => {
                let (dead, suspended) = gated(&self.supervisor, client);
                if dead {
                    // A crashed client's remaining open-loop arrivals are
                    // abandoned.
                    return;
                }
                if client == 0 {
                    if let Some(source) = self.source.as_deref_mut() {
                        source.on_arrival(now);
                        if !self.clients[0].request_in_flight() {
                            self.restart_next_request(now, 0, sched);
                        }
                        return;
                    }
                }
                let c = &mut self.clients[client];
                c.on_arrival(now);
                // Quarantined clients buffer arrivals but may not start
                // them until Readmit fires.
                if !suspended && c.try_start_request() {
                    sched.schedule_at(now, Ev::Push { client });
                }
            }
            Ev::Push { client } => {
                self.maybe_fire_client_fault(client);
                let c = &mut self.clients[client];
                if c.push_next().is_some() {
                    if c.can_push() {
                        sched.schedule_in(self.launch_cost[client], Ev::Push { client });
                    }
                    self.run_policy(now, sched);
                }
            }
            Ev::StartRequest { client } => {
                let (dead, suspended) = gated(&self.supervisor, client);
                if !dead && !suspended && self.clients[client].try_start_request() {
                    sched.schedule_at(now, Ev::Push { client });
                }
            }
            Ev::GpuWake { token } => {
                // Stale wake-ups (state changed since arming) are no-ops;
                // drain_gpu above already advanced the device.
                if token == self.wake_token {
                    self.wake_at = None;
                    self.arm_wake(now, sched);
                }
            }
            Ev::Watchdog => {
                if let Some(interval) =
                    self.supervisor.as_ref().map(|s| s.cfg.watchdog_interval)
                {
                    self.watchdog(now, sched);
                    sched.schedule_in(interval, Ev::Watchdog);
                }
            }
            Ev::Readmit { client } => {
                let Some(sup) = self.supervisor.as_mut() else {
                    return;
                };
                if sup.dead[client] || !sup.is_suspended(client) {
                    return;
                }
                sup.suspended_until[client] = None;
                sup.report.readmissions += 1;
                if self.clients[client].try_start_request() {
                    sched.schedule_at(now, Ev::Push { client });
                }
            }
        }
    }
}

/// Runs one collocation experiment: the given clients share one simulated
/// GPU under `policy`. Returns per-client latency/throughput and device
/// utilization.
///
/// # Errors
///
/// Returns [`GpuError::OutOfMemory`] when the clients' memory footprints do
/// not fit on the device (the paper assumes the cluster manager collocates
/// jobs that fit, §5.1.3).
pub fn run_collocation(
    policy: PolicyKind,
    clients: Vec<ClientSpec>,
    cfg: &RunConfig,
) -> Result<RunResult, GpuError> {
    let n = clients.len();
    run_collocation_with_profiles(policy, clients, vec![None; n], cfg)
}

/// [`run_collocation`] with pre-built profile tables: `profiles[i] = Some(t)`
/// skips the offline profiling phase for client `i` and uses `t` verbatim
/// (the fleet control plane memoizes offline tables per workload and carries
/// online-learned tables across epochs); `None` keeps the per-run behavior.
///
/// # Errors
///
/// Same as [`run_collocation`].
///
/// # Panics
///
/// Panics when `profiles.len() != clients.len()`.
pub fn run_collocation_with_profiles(
    policy: PolicyKind,
    clients: Vec<ClientSpec>,
    profiles: Vec<Option<orion_profiler::ProfileTable>>,
    cfg: &RunConfig,
) -> Result<RunResult, GpuError> {
    run_world(policy, clients, profiles, cfg, None)
}

/// [`run_collocation_with_profiles`] with an optional [`RequestSource`]
/// generating client 0's requests. Client 0's arrivals are still scheduled
/// from its spec, but each one goes to the source, and the source decides
/// what every request of client 0 runs. Its kernels are profiled from their
/// own descriptors (step shapes share kernel ids, so no table can key them).
pub(crate) fn run_world(
    policy: PolicyKind,
    clients: Vec<ClientSpec>,
    profiles: Vec<Option<orion_profiler::ProfileTable>>,
    cfg: &RunConfig,
    source: Option<&mut dyn RequestSource>,
) -> Result<RunResult, GpuError> {
    assert_eq!(
        profiles.len(),
        clients.len(),
        "one profile slot per client"
    );
    let mut gpu = GpuEngine::new(cfg.spec.clone(), cfg.record_timeline);
    if cfg.record_trace {
        gpu.enable_trace();
    }
    if cfg.validate.enabled() {
        gpu.enable_event_log();
    }
    if !cfg.faults.is_none() {
        // The plan seed is splitmix-derived from the run seed, so fault
        // decisions are a pure function of (seed, submit ordinal) — immune
        // to thread count and wall-clock, like the PR 1 per-cell seeds.
        let mut plan = FaultPlan::seeded(cell_seed(cfg.seed, FAULT_SEED_TAG), cfg.faults.rates)
            .with_stall(cfg.faults.stall);
        for &(target, kind) in &cfg.faults.targets {
            plan = plan.with_target(target, kind);
        }
        gpu.set_fault_plan(plan);
    }

    // Offline profiling phase (§5.2): each workload profiled solo. A client
    // marked `unprofiled` skips the phase and gets an empty table, so every
    // kernel lookup misses and the scheduler degrades conservatively.
    let mut states = Vec::with_capacity(clients.len());
    for (i, (spec, pre)) in clients.into_iter().zip(profiles).enumerate() {
        let profile = match pre {
            Some(table) => table,
            None if spec.unprofiled => orion_profiler::ProfileTable::default(),
            None => profile_workload(&spec.workload, &cfg.spec)?.table(),
        };
        gpu.alloc_immediate(spec.workload.memory_footprint)?;
        let state = ClientState::new(spec, profile);
        states.push(if i == 0 && source.is_some() {
            state.with_descriptor_profiles(cfg.spec.clone())
        } else {
            state
        });
    }

    let n_clients = states.len().max(1);
    let kind = policy;
    let mut boxed = kind.build();
    let launch_cost: Vec<SimTime> = states
        .iter()
        .map(|_| {
            let gil = if kind.gil_contention() {
                n_clients as u64
            } else {
                1
            };
            cfg.spec.launch_overhead * gil + kind.intercept_overhead()
        })
        .collect();

    // Policy setup (stream creation).
    {
        let mut submissions = Vec::new();
        let mut ctx = SchedCtx {
            now: SimTime::ZERO,
            gpu: &mut gpu,
            clients: &mut states,
            submissions: &mut submissions,
        };
        boxed.setup(&mut ctx);
        assert!(
            submissions.is_empty(),
            "policies must not submit during setup"
        );
    }

    // The supervisor (and its watchdog event stream) exists only for chaos
    // runs, keeping fault-free runs event-for-event identical to pre-fault
    // builds.
    let chaos = !cfg.faults.is_none() || states.iter().any(|c| c.spec.fault.is_some());
    let supervisor = chaos.then(|| Supervisor::new(SupervisorConfig::default(), n_clients));
    let watchdog = supervisor.as_ref().map(|s| s.cfg.watchdog_interval);
    let online = cfg.online.then(|| {
        let priorities: Vec<ClientPriority> = states.iter().map(ClientState::priority).collect();
        OnlineState::new(&priorities)
    });
    let world = CollocationWorld {
        gpu,
        inflight: vec![0; states.len()],
        clients: states,
        source,
        policy: Some(boxed),
        routes: Vec::new(),
        wake_token: 0,
        wake_at: None,
        launch_cost,
        validator: cfg
            .validate
            .enabled()
            .then(|| Validator::new(cfg.validate == ValidateMode::Strict)),
        supervisor,
        recovery_requeued: Vec::new(),
        recovery_shed: Vec::new(),
        pending_culprit: None,
        online,
        completion_buf: Vec::new(),
        submissions: Vec::new(),
        routed: Vec::new(),
    };

    let mut sim = Simulation::new(world);
    if let Some(at) = watchdog {
        sim.schedule_at(at, Ev::Watchdog);
    }

    // Seed arrivals.
    let mut rng = DetRng::new(cfg.seed);
    let n = sim.world().clients.len();
    for i in 0..n {
        let arrivals = sim.world().clients[i].spec.arrivals.clone();
        if arrivals.is_closed_loop() {
            sim.schedule_at(SimTime::ZERO, Ev::Arrival { client: i });
        } else {
            let mut crng = rng.fork(i as u64 + 1);
            for t in arrivals.schedule(cfg.horizon, &mut crng) {
                sim.schedule_at(t, Ev::Arrival { client: i });
            }
        }
    }

    let outcome = sim.run_until(cfg.horizon, 500_000_000);
    assert_ne!(
        outcome,
        orion_desim::sim::RunOutcome::BudgetExhausted,
        "collocation run livelocked"
    );

    // Final drain at the horizon for exact utilization accounting.
    let horizon = cfg.horizon;
    sim.world_mut().gpu.advance_to(horizon);
    let trace = sim.world_mut().gpu.take_trace();
    // The oracle stops at the last scheduling round: the horizon drain above
    // is pure accounting (no policy ran), so there is no claim to check.
    let validation = sim.world_mut().validator.take().map(Validator::into_report);
    let mut robustness = sim
        .world_mut()
        .supervisor
        .take()
        .map(|s| s.report)
        .unwrap_or_default();
    robustness.unknown_kernel_ops = sim
        .world()
        .clients
        .iter()
        .map(|c| c.profile_misses)
        .sum();

    let sim_events = sim.events_processed();
    let world = sim.world();
    let window = cfg.horizon - cfg.warmup;
    let policy_name = kind.label();
    // Learned-vs-true error columns: ground truth is each kernel's solo
    // duration with the client's drift applied as of the horizon.
    let online = world.online.as_ref().map(|o| {
        o.report(|ci, kid| {
            let spec = &world.clients[ci].spec;
            let scale = spec.drift.map_or(1.0, |d| d.scale_at(horizon));
            spec.workload.ops.iter().find_map(|(_, op)| match op {
                OpSpec::Kernel(k) if k.kernel_id == kid => Some(if scale == 1.0 {
                    k.solo_duration
                } else {
                    k.solo_duration.mul_f64(scale)
                }),
                _ => None,
            })
        })
    });
    let clients = world
        .clients
        .iter()
        .map(|c| {
            let mut latency = LatencyRecorder::new();
            let mut tp = ThroughputCounter::new();
            tp.set_window(window);
            for &(done_at, lat) in &c.finished {
                if done_at >= cfg.warmup {
                    latency.record(lat);
                    tp.record();
                }
            }
            ClientResult {
                label: c.spec.workload.label(),
                priority: c.priority(),
                completed: tp.completed(),
                throughput: tp.per_second(),
                latency,
            }
        })
        .collect();

    let timeline = if cfg.record_timeline {
        world.gpu.util().resample(SimTime::from_millis(1))
    } else {
        Vec::new()
    };

    let learned = cfg
        .online
        .then(|| world.clients.iter().map(|c| c.profile.clone()).collect());

    Ok(RunResult {
        policy: policy_name,
        clients,
        utilization: world.gpu.util_summary(),
        timeline,
        trace,
        window,
        validation,
        robustness,
        ended_faulted: world.gpu.device_faulted(),
        online,
        learned,
        sim_events,
        ops_completed: world.gpu.completed_count(),
        completion_scans: world.gpu.completion_scan_count(),
        kernel_submits: world.gpu.kernel_submit_count(),
        desc_intern_misses: world.gpu.desc_intern_miss_count(),
        interference_evals: world.gpu.eval_count(),
    })
}

/// Runs a client alone on a dedicated GPU (the paper's "Ideal" reference).
pub fn run_dedicated(client: ClientSpec, cfg: &RunConfig) -> Result<RunResult, GpuError> {
    run_collocation(PolicyKind::Mps, vec![client], cfg)
}

// The parallel experiment runner fans `run_collocation` cells across OS
// threads: the inputs must cross thread boundaries (`Send`) and the shared
// configuration is borrowed from many workers at once (`Sync`). Keep these
// compile-time assertions so a stray `Rc`/raw pointer in a policy or spec
// can't silently break the runner.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<RunConfig>();
    assert_sync::<RunConfig>();
    assert_send::<ClientSpec>();
    assert_sync::<ClientSpec>();
    assert_send::<PolicyKind>();
    assert_sync::<PolicyKind>();
    assert_send::<RunResult>();
    assert_send::<GpuError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use orion_workloads::arrivals::ArrivalProcess;
    use orion_workloads::registry::{inference_workload, training_workload};
    use orion_workloads::ModelKind;

    #[test]
    fn dedicated_inference_latency_matches_profile() {
        let w = inference_workload(ModelKind::MobileNetV2);
        let cfg = RunConfig::quick_test();
        let r = run_dedicated(
            ClientSpec::high_priority(w, ArrivalProcess::Poisson { rps: 20.0 }),
            &cfg,
        )
        .unwrap();
        let hp = &r.clients[0];
        assert!(hp.completed > 20, "completed {}", hp.completed);
        // Lightly loaded: p50 close to the solo latency (~4.3 ms).
        let p50 = {
            let mut l = LatencyRecorder::new();
            for &s in hp.latency.samples() {
                l.record(s);
            }
            l.p50().as_millis_f64()
        };
        assert!((3.5..6.5).contains(&p50), "p50 {p50} ms");
    }

    #[test]
    fn closed_loop_training_throughput_matches_table4() {
        let w = training_workload(ModelKind::ResNet50);
        let cfg = RunConfig::quick_test();
        let r = run_dedicated(ClientSpec::best_effort(w, ArrivalProcess::ClosedLoop), &cfg).unwrap();
        let tput = r.clients[0].throughput;
        // Table 4: ~10.3 iterations/sec on a dedicated V100.
        assert!((8.5..11.5).contains(&tput), "throughput {tput}");
    }

    #[test]
    fn collocation_runs_all_policies() {
        let cfg = RunConfig::quick_test();
        for kind in [
            PolicyKind::Temporal,
            PolicyKind::Streams,
            PolicyKind::StreamPriority,
            PolicyKind::Mps,
            PolicyKind::reef_default(),
            PolicyKind::orion_default(),
        ] {
            let clients = vec![
                ClientSpec::high_priority(
                    inference_workload(ModelKind::ResNet50),
                    ArrivalProcess::Poisson { rps: 15.0 },
                ),
                ClientSpec::best_effort(
                    training_workload(ModelKind::MobileNetV2),
                    ArrivalProcess::ClosedLoop,
                ),
            ];
            let r = run_collocation(kind.clone(), clients, &cfg).unwrap();
            assert_eq!(r.clients.len(), 2);
            assert!(
                r.hp().completed > 0,
                "{}: hp completed nothing",
                kind.label()
            );
        }
    }

    #[test]
    fn think_time_paces_closed_loop() {
        // A closed loop with 20 ms think time completes fewer requests than
        // one without, by roughly horizon / (service + think).
        let w = inference_workload(ModelKind::MobileNetV2); // ~4.5 ms service
        let cfg = RunConfig::quick_test();
        let plain = run_dedicated(
            ClientSpec::best_effort(w.clone(), ArrivalProcess::ClosedLoop),
            &cfg,
        )
        .unwrap()
        .clients[0]
            .throughput;
        let think = run_dedicated(
            ClientSpec::best_effort(
                w,
                ArrivalProcess::ClosedLoopThink {
                    think: SimTime::from_millis(20),
                },
            ),
            &cfg,
        )
        .unwrap()
        .clients[0]
            .throughput;
        assert!(plain > 100.0, "plain {plain}");
        // ~1000 / (4.7 + 20) = ~40 req/s.
        assert!((30.0..50.0).contains(&think), "think-paced {think}");
    }

    #[test]
    fn trace_recording_captures_all_ops() {
        let w = inference_workload(ModelKind::MobileNetV2);
        let mut cfg = RunConfig::quick_test();
        cfg.horizon = SimTime::from_millis(100);
        cfg.record_trace = true;
        let r = run_dedicated(
            ClientSpec::best_effort(w.clone(), ArrivalProcess::ClosedLoop),
            &cfg,
        )
        .unwrap();
        let trace = r.trace.expect("trace recorded");
        assert!(!trace.is_empty());
        // Every span is well-formed: submit <= dispatch <= complete.
        for s in &trace.spans {
            assert!(s.submitted <= s.dispatched, "span {s:?}");
            assert!(s.dispatched <= s.completed, "span {s:?}");
        }
        // Roughly (ops per request) x (completed requests) spans.
        let per_request = w.ops.len() as u64;
        assert!(trace.len() as u64 >= per_request * r.clients[0].completed);
        // And the Chrome export parses as JSON.
        let json = trace.to_chrome_trace();
        let v = orion_json::parse(&json).unwrap();
        assert!(v["traceEvents"].as_array().unwrap().len() == trace.len());
    }

    #[test]
    fn oom_is_reported() {
        let cfg = RunConfig::quick_test();
        let clients = vec![
            ClientSpec::best_effort(
                training_workload(ModelKind::Transformer),
                ArrivalProcess::ClosedLoop,
            ),
            ClientSpec::best_effort(
                training_workload(ModelKind::MobileNetV2),
                ArrivalProcess::ClosedLoop,
            ),
            ClientSpec::best_effort(
                training_workload(ModelKind::Bert),
                ArrivalProcess::ClosedLoop,
            ),
        ];
        let err = run_collocation(PolicyKind::Mps, clients, &cfg);
        assert!(matches!(err, Err(GpuError::OutOfMemory { .. })));
    }

    #[test]
    fn online_report_absent_when_disabled() {
        let cfg = RunConfig::quick_test();
        let r = run_dedicated(
            ClientSpec::high_priority(
                inference_workload(ModelKind::MobileNetV2),
                ArrivalProcess::Poisson { rps: 10.0 },
            ),
            &cfg,
        )
        .unwrap();
        assert!(r.online.is_none());
    }

    #[test]
    fn online_cold_start_learns_profiles_under_strict_oracle() {
        // Zero offline profiles: both clients start Unknown, and the run
        // must still admit kernels whose learned durations match ground
        // truth (the Strict oracle panics on any admission outside the
        // tolerance).
        let mut cfg = RunConfig::quick_test();
        cfg.online = true;
        let clients = vec![
            ClientSpec::high_priority(
                inference_workload(ModelKind::ResNet50),
                ArrivalProcess::Poisson { rps: 15.0 },
            )
            .unprofiled(),
            ClientSpec::best_effort(
                training_workload(ModelKind::MobileNetV2),
                ArrivalProcess::ClosedLoop,
            )
            .unprofiled(),
        ];
        let r = run_collocation(PolicyKind::orion_default(), clients, &cfg).unwrap();
        let o = r.online.as_ref().expect("online report present");
        assert!(o.admitted > 0, "no kernels admitted: {o:?}");
        assert!(o.clean_samples > 0);
        assert!(
            o.max_profile_error < 0.10,
            "learned profiles diverge from truth: {o:?}"
        );
        assert!(
            o.latency_estimates > 0,
            "solo-latency tuner never fired: {o:?}"
        );
        assert!(r.hp().completed > 0);
        assert!(r.be_throughput() > 0.0, "admission never unthrottled BE");
    }

    #[test]
    fn online_drift_demotes_and_relearns() {
        // Mid-run 1.5x duration drift on the best-effort client: admitted
        // kernels must be caught by the z-strike detector, withdrawn, and
        // re-admitted at the new regime — all under the Strict oracle.
        let mut cfg = RunConfig::quick_test();
        cfg.online = true;
        let drift_at = SimTime::from_millis(1500);
        let clients = vec![
            ClientSpec::high_priority(
                inference_workload(ModelKind::ResNet50),
                ArrivalProcess::Poisson { rps: 15.0 },
            )
            .unprofiled(),
            ClientSpec::best_effort(
                training_workload(ModelKind::MobileNetV2),
                ArrivalProcess::ClosedLoop,
            )
            .unprofiled()
            .with_drift(orion_workloads::DriftSpec::new(drift_at, 1.5)),
        ];
        let r = run_collocation(PolicyKind::orion_default(), clients, &cfg).unwrap();
        let o = r.online.expect("online report present");
        assert!(o.demotions > 0, "drift never detected: {o:?}");
        assert!(
            o.admissions > o.demotions,
            "demoted kernels never re-admitted: {o:?}"
        );
        // Post-drift ground truth at the horizon: learned profiles that
        // survived to the end must match the *drifted* durations.
        assert!(o.max_profile_error < 0.10, "stale profiles survived: {o:?}");
    }

    #[test]
    fn orion_cell_costs_one_push_and_one_wake_per_op() {
        // Each op costs one `Push` plus one `GpuWake`; duplicate wakes at a
        // device time that already has a pending wake are never scheduled.
        // The engine's own per-op work is gated beside it.
        let cfg = RunConfig::quick_test();
        let clients = vec![
            ClientSpec::high_priority(
                inference_workload(ModelKind::ResNet50),
                ArrivalProcess::Poisson { rps: 15.0 },
            ),
            ClientSpec::best_effort(
                training_workload(ModelKind::MobileNetV2),
                ArrivalProcess::ClosedLoop,
            ),
        ];
        let r = run_collocation(PolicyKind::orion_default(), clients, &cfg).unwrap();
        assert!(r.ops_completed > 1000, "ops {}", r.ops_completed);
        let per_op = r.sim_events as f64 / r.ops_completed as f64;
        assert!(per_op <= 2.05, "{per_op:.3} events per completed op");
        // The engine answers repeated next-event queries on unchanged state
        // from its memo (2.02 real scans per op here; 4.04 without it).
        let scans = r.completion_scans as f64 / r.ops_completed as f64;
        assert!(scans <= 2.10, "{scans:.3} completion scans per completed op");
        // Each distinct descriptor is validated once per engine (2.75% of
        // kernel submits here: the cell's distinct kernels; a last-seen
        // pointer cache missed on every submit).
        assert!(r.kernel_submits > 1000, "kernel submits {}", r.kernel_submits);
        let misses = r.desc_intern_misses as f64 / r.kernel_submits as f64;
        assert!(misses <= 0.03, "{misses:.4} descriptor-intern misses per kernel submit");
        // The engine evaluates the interference model once per refresh that
        // follows a change of the running kernel set and finds two or more
        // kernels running (0.173 per op here; 1.419 when an empty or lone
        // set was evaluated too), and never for copies, events, sync ops or
        // repeated queries.
        let evals = r.interference_evals as f64 / r.ops_completed as f64;
        assert!(evals <= 0.20, "{evals:.3} interference evaluations per completed op");
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = RunConfig::quick_test();
        let mk = || {
            vec![
                ClientSpec::high_priority(
                    inference_workload(ModelKind::ResNet50),
                    ArrivalProcess::Poisson { rps: 15.0 },
                ),
                ClientSpec::best_effort(
                    training_workload(ModelKind::ResNet50),
                    ArrivalProcess::ClosedLoop,
                ),
            ]
        };
        let a = run_collocation(PolicyKind::orion_default(), mk(), &cfg).unwrap();
        let b = run_collocation(PolicyKind::orion_default(), mk(), &cfg).unwrap();
        assert_eq!(a.hp().completed, b.hp().completed);
        assert_eq!(a.hp().latency.samples(), b.hp().latency.samples());
        assert_eq!(a.clients[1].completed, b.clients[1].completed);
    }
}
