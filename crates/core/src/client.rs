//! Client-side state: request lifecycles and per-client software queues.
//!
//! In the paper's prototype, each client application (a PyTorch process or
//! thread) launches GPU operations through Orion's wrappers, which append
//! them to a per-client software queue (§5). The client runs ahead of the
//! GPU (asynchronous launches) but blocks on synchronous operations
//! (`cudaMemcpy`) and at request boundaries. This module models that state
//! machine; the world (`crate::world`) drives it with events.

use std::collections::VecDeque;
use std::sync::Arc;

use orion_desim::time::SimTime;
use orion_gpu::engine::GpuEngine;
use orion_gpu::kernel::ResourceProfile;
use orion_gpu::spec::GpuSpec;
use orion_profiler::ProfileTable;
use orion_workloads::arrivals::{ArrivalProcess, DriftSpec};
use orion_workloads::model::{Phase, Workload};
use orion_workloads::ops::OpSpec;

use crate::supervisor::ClientFault;

/// Scheduling class of a client (paper §5: one high-priority client, any
/// number of best-effort clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientPriority {
    /// The latency/throughput-critical client.
    HighPriority,
    /// Opportunistic client that may only use spare resources.
    BestEffort,
}

/// Configuration of one client in a collocation run.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The client's workload (one request/iteration op trace). Shared: every
    /// request of a fixed-workload client replays this one trace.
    pub workload: Arc<Workload>,
    /// Request arrival process.
    pub arrivals: ArrivalProcess,
    /// Scheduling class.
    pub priority: ClientPriority,
    /// Optional injected lifecycle fault (crash/hang/slow-poll).
    pub fault: Option<ClientFault>,
    /// Skip the offline profiling phase (§5.2) for this client: every kernel
    /// lookup misses and the scheduler takes the conservative unprofiled
    /// path. Models a client submitting kernels the profiler has never seen.
    pub unprofiled: bool,
    /// Optional mid-run kernel-duration drift (changed tensor shapes, a
    /// model redeploy). Applied when ops are routed to the device; offline
    /// profiles are *not* adjusted, so a drifted client's profiles go stale —
    /// exactly the situation the online profiler's drift detector handles.
    pub drift: Option<DriftSpec>,
}

impl ClientSpec {
    /// A high-priority client.
    pub fn high_priority(workload: Workload, arrivals: ArrivalProcess) -> Self {
        ClientSpec {
            workload: Arc::new(workload),
            arrivals,
            priority: ClientPriority::HighPriority,
            fault: None,
            unprofiled: false,
            drift: None,
        }
    }

    /// A best-effort client.
    pub fn best_effort(workload: Workload, arrivals: ArrivalProcess) -> Self {
        ClientSpec {
            workload: Arc::new(workload),
            arrivals,
            priority: ClientPriority::BestEffort,
            fault: None,
            unprofiled: false,
            drift: None,
        }
    }

    /// Injects a lifecycle fault into this client (builder style).
    pub fn with_fault(mut self, fault: ClientFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Skips offline profiling for this client (builder style); see
    /// [`ClientSpec::unprofiled`].
    pub fn unprofiled(mut self) -> Self {
        self.unprofiled = true;
        self
    }

    /// Attaches a mid-run kernel-duration drift (builder style); see
    /// [`ClientSpec::drift`].
    pub fn with_drift(mut self, drift: DriftSpec) -> Self {
        self.drift = Some(drift);
        self
    }
}

/// Generates a client's requests at run time instead of replaying one fixed
/// workload: the serving batcher, whose every request is one prefill or one
/// batched decode step. The world owns the event loop and calls the source
/// at the client's request boundaries; the source never submits ops or
/// schedules events, it only decides what the next request runs.
pub trait RequestSource {
    /// A request of the client's arrival process arrived at `now`.
    fn on_arrival(&mut self, now: SimTime);

    /// The client is idle at `now`: its previous request, if any, has just
    /// completed. Returns the next request's op trace, or `None` to stay idle
    /// until the next arrival. `gpu` gives access to the memory ledger.
    fn next_request(&mut self, now: SimTime, gpu: &mut GpuEngine) -> Option<Arc<Workload>>;
}

/// An operation sitting in a client's software queue, annotated with the
/// offline profile the scheduler consults (§5.2). The op itself stays in its
/// request's trace: [`ClientState::workload_of`]`(request_id).ops[op_seq]`.
#[derive(Debug, Clone)]
pub struct QueuedOp {
    /// Training phase tag (used by Tick-Tock).
    pub phase: Phase,
    /// Request this op belongs to.
    pub request_id: u64,
    /// Index of the op within its request.
    pub op_seq: u32,
    /// True for the final op of the request.
    pub last_of_request: bool,
    /// True for kernels (vs. memory operations).
    pub is_kernel: bool,
    /// True for copies with synchronous (client-blocking) semantics.
    pub is_blocking: bool,
    /// Profiled resource class (kernels; `Unknown` for copies).
    pub profile: ResourceProfile,
    /// Profiled duration (kernels; zero for copies).
    pub expected_dur: SimTime,
    /// Profiled SM demand (kernels; zero for copies).
    pub sm_needed: u32,
    /// False when the offline profile has no entry for this kernel; such ops
    /// must be scheduled conservatively (DESIGN.md §11). Always true for
    /// memory ops (they need no profile).
    pub profiled: bool,
}

/// Progress of the in-flight (or most recently finished) request.
#[derive(Debug, Clone)]
struct RequestProgress {
    request_id: u64,
    /// The request's op trace: the client's fixed workload, or a step shape
    /// from its request source.
    workload: Arc<Workload>,
    /// Arrival time (queueing delay counts toward latency).
    arrived_at: SimTime,
    /// Next op index to push into the software queue.
    next_op: u32,
    /// True once the final op's completion has been observed.
    done: bool,
}

/// Full client state inside a collocation run.
#[derive(Debug)]
pub struct ClientState {
    /// Static configuration.
    pub spec: ClientSpec,
    /// Offline profile of this client's workload.
    pub profile: ProfileTable,
    /// Set for request-source clients: their step shapes reuse kernel ids
    /// across shapes, so one table cannot key them, and each kernel is
    /// profiled from its own descriptor for this device instead.
    descriptor_device: Option<GpuSpec>,
    /// The software queue the scheduler drains.
    queue: VecDeque<QueuedOp>,
    /// Requests that arrived but have not started.
    pending: VecDeque<SimTime>,
    current: Option<RequestProgress>,
    /// Op sequence the push cursor is blocked on (blocking memcpy), if any.
    blocked_on: Option<(u64, u32)>,
    next_request_id: u64,
    /// Completed request latencies with completion timestamps.
    pub finished: Vec<(SimTime, SimTime)>, // (completed_at, latency)
    /// Kernel ops pushed without an offline profile entry.
    pub profile_misses: u64,
    /// Set when the client crashed or hung: the push cursor stops forever.
    halted: bool,
}

impl ClientState {
    /// Creates client state from a spec and its offline profile.
    pub fn new(spec: ClientSpec, profile: ProfileTable) -> Self {
        ClientState {
            spec,
            profile,
            descriptor_device: None,
            queue: VecDeque::new(),
            pending: VecDeque::new(),
            current: None,
            blocked_on: None,
            next_request_id: 0,
            finished: Vec::new(),
            profile_misses: 0,
            halted: false,
        }
    }

    /// Profiles this client's kernels from their own descriptors for
    /// `device` rather than from [`ClientState::profile`] (request-source
    /// clients, builder style).
    pub fn with_descriptor_profiles(mut self, device: GpuSpec) -> Self {
        self.descriptor_device = Some(device);
        self
    }

    /// Scheduling class shortcut.
    pub fn priority(&self) -> ClientPriority {
        self.spec.priority
    }

    /// Head of the software queue, if any.
    pub fn peek(&self) -> Option<&QueuedOp> {
        self.queue.front()
    }

    /// Pops the head of the software queue.
    pub fn pop(&mut self) -> Option<QueuedOp> {
        self.queue.pop_front()
    }

    /// Ops currently buffered in the software queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// True when a request is in flight (started, not yet completed).
    pub fn request_in_flight(&self) -> bool {
        self.current.as_ref().is_some_and(|r| !r.done)
    }

    /// Arrival time of the next pending (not yet started) request.
    pub fn next_pending_at(&self) -> Option<SimTime> {
        self.pending.front().copied()
    }

    /// Records a request arrival; returns `true` if the request can start
    /// now (the client was idle).
    pub fn on_arrival(&mut self, at: SimTime) -> bool {
        self.pending.push_back(at);
        !self.request_in_flight()
    }

    /// Starts the next pending request; returns `false` when none is
    /// pending or one is already in flight.
    pub fn try_start_request(&mut self) -> bool {
        if self.request_in_flight() {
            return false;
        }
        let Some(arrived_at) = self.pending.pop_front() else {
            return false;
        };
        let workload = Arc::clone(&self.spec.workload);
        self.start_request(arrived_at, workload)
    }

    /// Starts a request that runs `workload` (a request-source step);
    /// returns `false` when one is already in flight.
    pub fn start_request(&mut self, arrived_at: SimTime, workload: Arc<Workload>) -> bool {
        if self.request_in_flight() {
            return false;
        }
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.current = Some(RequestProgress {
            request_id: id,
            workload,
            arrived_at,
            next_op: 0,
            done: false,
        });
        self.blocked_on = None;
        true
    }

    /// The op trace of request `request_id`: its own workload while it is
    /// the current (or just-finished) request, else the fixed workload.
    pub fn workload_of(&self, request_id: u64) -> &Workload {
        match &self.current {
            Some(r) if r.request_id == request_id => &r.workload,
            _ => &self.spec.workload,
        }
    }

    /// Whether the push cursor can emit another op right now.
    pub fn can_push(&self) -> bool {
        if self.halted {
            return false;
        }
        match &self.current {
            Some(r) if !r.done => {
                self.blocked_on.is_none() && (r.next_op as usize) < r.workload.ops.len()
            }
            _ => false,
        }
    }

    /// Permanently stops the push cursor (crashed or hung client).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Progress of the in-flight request: `(request_id, next_op)`.
    pub fn current_progress(&self) -> Option<(u64, u32)> {
        self.current
            .as_ref()
            .filter(|r| !r.done)
            .map(|r| (r.request_id, r.next_op))
    }

    /// Puts a previously popped (and aborted) op back at the queue head for
    /// deterministic resubmission after a device reset. The blocked-on
    /// marker is untouched: an aborted blocking op never completed, so the
    /// marker set at its original push is still correct.
    pub fn requeue_front(&mut self, op: QueuedOp) {
        self.queue.push_front(op);
    }

    /// Sheds the in-flight request: drops its unsubmitted ops and the
    /// request itself. The queue only ever holds ops of the current request,
    /// so clearing it is exact. Pending arrivals are untouched; restarting
    /// (or not) is the caller's decision.
    pub fn shed_current(&mut self) {
        self.queue.clear();
        self.blocked_on = None;
        self.current = None;
    }

    /// Enqueues a synthetic pending arrival (quarantine re-admission).
    pub fn enqueue_pending(&mut self, at: SimTime) {
        self.pending.push_back(at);
    }

    /// Rebuilds the queued-op record for `(request_id, op_seq)` of the
    /// in-flight request, for resubmission after a reset. Deterministic: the
    /// request's trace and the profile table are immutable, so this
    /// reproduces exactly what [`ClientState::push_next`] produced (without
    /// re-counting profile misses).
    pub fn op_for(&self, request_id: u64, op_seq: u32) -> QueuedOp {
        let idx = op_seq as usize;
        let workload = self.workload_of(request_id);
        let (phase, spec) = &workload.ops[idx];
        let (is_kernel, is_blocking) = match spec {
            OpSpec::Kernel(_) => (true, false),
            OpSpec::H2D { blocking, .. } | OpSpec::D2H { blocking, .. } => (false, *blocking),
        };
        // One profile lookup per op; a miss leaves the kernel unprofiled.
        let (profile, expected_dur, sm_needed, profiled) = match (spec, &self.descriptor_device) {
            // What `kernel_profile(k, k.solo_duration, device)` reports,
            // without building a whole profile (and cloning its name).
            (OpSpec::Kernel(k), Some(device)) => {
                (k.classify(), k.solo_duration, k.sm_needed(device), true)
            }
            (OpSpec::Kernel(k), None) => match self.profile.get(k.kernel_id) {
                Some(p) => (p.profile, p.duration, p.sm_needed, true),
                None => (ResourceProfile::Unknown, SimTime::ZERO, 0, false),
            },
            _ => (ResourceProfile::Unknown, SimTime::ZERO, 0, true),
        };
        QueuedOp {
            phase: *phase,
            request_id,
            op_seq,
            last_of_request: idx + 1 == workload.ops.len(),
            is_kernel,
            is_blocking,
            profile,
            expected_dur,
            sm_needed,
            profiled,
        }
    }

    /// Pushes the next op of the current request into the software queue.
    ///
    /// Returns the pushed op (now the queue's tail), or `None` when nothing
    /// can be pushed (blocked, finished, or no request).
    pub fn push_next(&mut self) -> Option<&QueuedOp> {
        if !self.can_push() {
            return None;
        }
        let r = self.current.as_mut().expect("can_push checked");
        let (request_id, op_seq) = (r.request_id, r.next_op);
        r.next_op += 1;
        let op = self.op_for(request_id, op_seq);
        if !op.profiled {
            self.profile_misses += 1;
        }
        if op.is_blocking {
            self.blocked_on = Some((request_id, op_seq));
        }
        self.queue.push_back(op);
        self.queue.back()
    }

    /// Handles the completion of one of this client's ops.
    ///
    /// Returns `Some(latency)` when this completion finished the request.
    pub fn on_op_complete(
        &mut self,
        now: SimTime,
        request_id: u64,
        op_seq: u32,
        last_of_request: bool,
    ) -> Option<SimTime> {
        if self.blocked_on == Some((request_id, op_seq)) {
            self.blocked_on = None;
        }
        let r = self.current.as_mut()?;
        if r.request_id != request_id || r.done {
            return None;
        }
        if last_of_request {
            r.done = true;
            let latency = now - r.arrived_at;
            self.finished.push((now, latency));
            // The finished request stays `current` (marked done) so its
            // trace stays readable until the next request starts.
            // Closed-loop clients queue the next request after their host
            // think time (zero for plain closed loops).
            if self.spec.arrivals.is_closed_loop() {
                self.pending.push_back(now + self.spec.arrivals.think_time());
            }
            return Some(latency);
        }
        None
    }

    /// Number of requests completed so far.
    pub fn completed(&self) -> usize {
        self.finished.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_gpu::spec::GpuSpec;
    use orion_profiler::{kernel_profile, profile_workload};
    use orion_workloads::registry::inference_workload;
    use orion_workloads::ModelKind;

    fn client(arrivals: ArrivalProcess) -> ClientState {
        let w = inference_workload(ModelKind::MobileNetV2);
        let profile = profile_workload(&w, &GpuSpec::v100_16gb()).unwrap().table();
        ClientState::new(ClientSpec::high_priority(w, arrivals), profile)
    }

    #[test]
    fn request_lifecycle() {
        let mut c = client(ArrivalProcess::Poisson { rps: 1.0 });
        assert!(!c.request_in_flight());
        assert!(c.on_arrival(SimTime::from_millis(1)));
        assert!(c.try_start_request());
        assert!(c.request_in_flight());
        assert!(!c.try_start_request(), "no double start");

        // Push the whole request; the first op (blocking H2D) blocks.
        let op0 = c.push_next().cloned().unwrap();
        assert!(op0.is_blocking);
        assert!(!c.can_push());
        assert!(c.push_next().is_none());
        // Completing the blocking op resumes pushing.
        assert!(c
            .on_op_complete(SimTime::from_millis(2), op0.request_id, op0.op_seq, false)
            .is_none());
        assert!(c.can_push());

        // Drain the rest of the ops.
        let total = c.spec.workload.ops.len() as u32;
        let mut last = None;
        while let Some(op) = c.push_next().cloned() {
            if op.is_blocking {
                c.on_op_complete(SimTime::from_millis(3), op.request_id, op.op_seq, false);
            }
            last = Some(op);
        }
        let last = last.unwrap();
        assert!(last.last_of_request);
        assert_eq!(last.op_seq, total - 1);

        // Finishing the last op finishes the request.
        let latency = c
            .on_op_complete(SimTime::from_millis(10), last.request_id, last.op_seq, true)
            .expect("request completes");
        assert_eq!(latency, SimTime::from_millis(9));
        assert!(!c.request_in_flight());
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn closed_loop_requeues_itself() {
        let mut c = client(ArrivalProcess::ClosedLoop);
        c.on_arrival(SimTime::ZERO);
        c.try_start_request();
        // Fast-forward: mark the final op complete.
        while c.push_next().is_some() {
            c.blocked_on = None; // tests drive without a GPU
        }
        let total = c.spec.workload.ops.len() as u32;
        c.on_op_complete(SimTime::from_millis(5), 0, total - 1, true);
        // A new pending request was enqueued automatically.
        assert!(c.try_start_request());
        assert!(c.request_in_flight());
    }

    #[test]
    fn queue_and_profiles_attached() {
        let mut c = client(ArrivalProcess::ClosedLoop);
        c.on_arrival(SimTime::ZERO);
        c.try_start_request();
        c.push_next(); // H2D
        c.blocked_on = None;
        let op = c.push_next().cloned().unwrap(); // first kernel
        assert!(op.is_kernel);
        assert!(op.expected_dur > SimTime::ZERO);
        assert!(op.sm_needed > 0);
        assert_eq!(c.queue_depth(), 2);
        assert_eq!(c.pop().unwrap().op_seq, 0);
        assert_eq!(c.peek().unwrap().op_seq, 1);
    }

    #[test]
    fn halt_stops_push_cursor() {
        let mut c = client(ArrivalProcess::ClosedLoop);
        c.on_arrival(SimTime::ZERO);
        c.try_start_request();
        assert!(c.can_push());
        c.halt();
        assert!(!c.can_push());
        assert!(c.push_next().is_none());
        assert!(c.request_in_flight(), "request stays stuck, not completed");
    }

    #[test]
    fn shed_current_clears_request_but_keeps_pending() {
        let mut c = client(ArrivalProcess::Poisson { rps: 1.0 });
        c.on_arrival(SimTime::ZERO);
        c.on_arrival(SimTime::from_millis(1));
        c.try_start_request();
        c.push_next();
        assert!(c.request_in_flight());
        assert_eq!(c.queue_depth(), 1);
        c.shed_current();
        assert!(!c.request_in_flight());
        assert_eq!(c.queue_depth(), 0);
        assert!(!c.can_push());
        // The second arrival is still pending and can start.
        assert!(c.try_start_request());
        assert_eq!(c.current_progress(), Some((1, 0)));
    }

    #[test]
    fn op_for_reproduces_push_next() {
        let mut c = client(ArrivalProcess::ClosedLoop);
        c.on_arrival(SimTime::ZERO);
        c.try_start_request();
        c.push_next(); // blocking H2D
        c.blocked_on = None;
        let pushed = c.push_next().cloned().unwrap(); // first kernel
        let rebuilt = c.op_for(pushed.request_id, pushed.op_seq);
        assert_eq!(rebuilt.op_seq, pushed.op_seq);
        assert_eq!(rebuilt.expected_dur, pushed.expected_dur);
        assert_eq!(rebuilt.sm_needed, pushed.sm_needed);
        assert_eq!(rebuilt.profiled, pushed.profiled);
        assert_eq!(rebuilt.last_of_request, pushed.last_of_request);
        assert_eq!(c.profile_misses, 0, "op_for never counts misses");

        // A request-source client whose two requests carry different step
        // shapes (sharing kernel ids) pushes each request's own ops, each
        // profiled from its own descriptor.
        use orion_workloads::models::llm::{llm_batched_decode_step, llm_prefill};
        let gpu = GpuSpec::v100_16gb();
        let mut c = ClientState::new(
            ClientSpec::high_priority(llm_prefill(64), ArrivalProcess::ClosedLoop),
            ProfileTable::default(),
        )
        .with_descriptor_profiles(gpu.clone());
        let done = SimTime::from_millis(1);
        for step in [llm_prefill(96), llm_batched_decode_step(3, 128)] {
            let step = Arc::new(step);
            assert!(c.start_request(done, Arc::clone(&step)));
            let mut pushed = Vec::new();
            while let Some(op) = c.push_next().cloned() {
                c.blocked_on = None;
                pushed.push(op);
            }
            assert_eq!(pushed.len(), step.ops.len(), "pushed the request's own ops");
            for (op, (_, spec)) in pushed.iter().zip(&step.ops) {
                let rebuilt = c.op_for(op.request_id, op.op_seq);
                assert_eq!(rebuilt.expected_dur, op.expected_dur);
                assert_eq!(rebuilt.last_of_request, op.last_of_request);
                if let OpSpec::Kernel(k) = spec {
                    let want = kernel_profile(k, k.solo_duration, &gpu);
                    assert!(op.profiled);
                    assert_eq!(op.expected_dur, want.duration);
                    assert_eq!(op.profile, want.profile);
                    assert_eq!(op.sm_needed, want.sm_needed);
                }
            }
            let last = pushed.last().unwrap();
            assert!(last.last_of_request);
            c.on_op_complete(done, last.request_id, last.op_seq, true);
        }
        assert_eq!(c.completed(), 2);
        assert_eq!(c.profile_misses, 0);
    }

    #[test]
    fn unprofiled_kernels_flagged_and_counted() {
        // Empty profile table: every kernel is a miss.
        let w = inference_workload(ModelKind::MobileNetV2);
        let c0 = ClientSpec::high_priority(w, ArrivalProcess::ClosedLoop);
        let mut c = ClientState::new(c0, ProfileTable::default());
        c.on_arrival(SimTime::ZERO);
        c.try_start_request();
        let mut kernels = 0u64;
        while let Some(op) = c.push_next().cloned() {
            c.blocked_on = None;
            if op.is_kernel {
                assert!(!op.profiled);
                assert_eq!(op.expected_dur, SimTime::ZERO);
                kernels += 1;
            } else {
                assert!(op.profiled, "memory ops need no profile");
            }
        }
        assert!(kernels > 0);
        assert_eq!(c.profile_misses, kernels);
    }

    #[test]
    fn arrivals_queue_while_busy() {
        let mut c = client(ArrivalProcess::Poisson { rps: 1.0 });
        assert!(c.on_arrival(SimTime::from_millis(1)));
        c.try_start_request();
        // Second arrival while the first is in flight.
        assert!(!c.on_arrival(SimTime::from_millis(2)));
        assert!(!c.try_start_request());
        // Finish request 0 (find the last op by pushing through).
        while c.push_next().is_some() {
            c.blocked_on = None;
        }
        let total = c.spec.workload.ops.len() as u32;
        c.on_op_complete(SimTime::from_millis(8), 0, total - 1, true);
        // Request 1 starts and its latency includes queueing delay.
        assert!(c.try_start_request());
        while c.push_next().is_some() {
            c.blocked_on = None;
        }
        c.on_op_complete(SimTime::from_millis(20), 1, total - 1, true);
        let (_, latency) = c.finished[1];
        assert_eq!(latency, SimTime::from_millis(18));
    }
}
