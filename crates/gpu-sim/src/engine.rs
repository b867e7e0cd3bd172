//! The GPU device engine: stream queues, non-preemptive dispatch,
//! processor-sharing execution, copy engine, and device synchronization.
//!
//! # Execution model
//!
//! Each stream executes its operations in order: one operation per stream is
//! *in flight* at a time, the rest wait in the stream's queue. In-flight
//! kernels from different streams run concurrently and share the device
//! according to [`crate::interference`]; SM grants are sticky (no preemption).
//! Copies share the PCIe link by processor sharing; a *blocking* copy also
//! stalls new kernel dispatch for its duration (the Figure 8 dips).
//! `Malloc`/`Free` request device-wide synchronization: dispatch stops until
//! the device drains, then the memory operation applies instantaneously.
//!
//! # Driving the engine
//!
//! The engine is a passive component designed to live inside a DES world:
//!
//! 1. call [`GpuEngine::advance_to`] with the current simulated time,
//! 2. mutate (submit ops, create streams),
//! 3. read [`GpuEngine::next_event_time`] and schedule a DES wake-up,
//! 4. on wake-up, `advance_to` again and [`GpuEngine::drain_completions`].
//!
//! # Data layout (see DESIGN.md, "Engine internals & performance")
//!
//! The hot path is allocation-free in steady state: operations live in a
//! slab (`Vec<Option<OpState>>` + free list) indexed directly by op id,
//! streams and events are dense `Vec`s indexed by their ids, the priority
//! dispatch order is cached and recomputed only on stream creation, and the
//! interference model evaluates into reusable scratch buffers. Freed op
//! slots are recycled only after [`GpuEngine::drain_completions`], so an op
//! id stays unique for as long as any completion referring to it is
//! undelivered.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use orion_desim::time::SimTime;

use crate::error::GpuError;
use crate::fault::{FaultCategory, FaultInjector, FaultKind, FaultPlan};
use crate::interference::{IncrementalEval, KernelLoad, KernelRate, ModelParams, Refreshed};
use crate::kernel::KernelDesc;
use crate::memory::{AllocId, MemoryLedger};
use crate::spec::GpuSpec;
use crate::stream::{StreamId, StreamPriority, StreamState};
use crate::trace::{ExecTrace, Span};
use crate::util::{UtilAccumulator, UtilSummary, UtilTotals};

/// Identifier of a submitted operation.
///
/// Ids index the engine's internal op slab and are **recycled** after the
/// operation's completion has been drained: an id is unique among live and
/// undrained ops, but a long-running simulation will reuse the ids of
/// long-finished ops. Treat an `OpId` as a handle valid until its
/// [`Completion`] is consumed, not as a global sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// Identifier of a CUDA-style event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u64);

/// An operation submitted to a stream.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// A computation kernel.
    ///
    /// Held behind an `Arc`: a submitted op carries an 8-byte handle to the
    /// shared, immutable description rather than an inline copy, which keeps
    /// the op slab (the hot path's dominant working set) small and makes a
    /// re-submission of the same kernel a refcount bump.
    Kernel(Arc<KernelDesc>),
    /// Host-to-device copy. `blocking` models `cudaMemcpy` (vs. `Async`).
    MemcpyH2D {
        /// Payload size in bytes.
        bytes: u64,
        /// True for synchronous `cudaMemcpy` semantics.
        blocking: bool,
    },
    /// Device-to-host copy.
    MemcpyD2H {
        /// Payload size in bytes.
        bytes: u64,
        /// True for synchronous `cudaMemcpy` semantics.
        blocking: bool,
    },
    /// Device memory allocation (device-wide synchronization point).
    Malloc {
        /// Bytes to allocate.
        bytes: u64,
    },
    /// Device memory release (device-wide synchronization point).
    Free {
        /// Allocation to release.
        alloc: AllocId,
    },
    /// `cudaEventRecord`: completes when all prior ops on the stream finish.
    EventRecord {
        /// The event to signal.
        event: EventId,
    },
}

impl OpKind {
    /// Short label for logs and completion records.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::Kernel(_) => "kernel",
            OpKind::MemcpyH2D { .. } => "memcpy_h2d",
            OpKind::MemcpyD2H { .. } => "memcpy_d2h",
            OpKind::Malloc { .. } => "malloc",
            OpKind::Free { .. } => "free",
            OpKind::EventRecord { .. } => "event_record",
        }
    }
}

/// Slab-resident form of [`OpKind`]: kernels are interned into the engine's
/// descriptor table ([`DescTable`]) and referenced by slot index. Every op
/// that launched (a clone of) the same `Arc<KernelDesc>` shares one slot
/// and its one engine-owned `Arc`; a resubmit of an indexed descriptor and
/// the op's retirement do no atomic refcount updates.
#[derive(Debug, Clone, Copy)]
enum OpPayload {
    /// Index into `GpuEngine::descs`.
    Kernel(u32),
    /// Copy byte counts live in `OpState::remaining`, not here.
    MemcpyH2D { blocking: bool },
    MemcpyD2H { blocking: bool },
    Malloc { bytes: u64 },
    Free { alloc: AllocId },
    EventRecord { event: EventId },
}

impl OpPayload {
    fn label(&self) -> &'static str {
        match self {
            OpPayload::Kernel(_) => "kernel",
            OpPayload::MemcpyH2D { .. } => "memcpy_h2d",
            OpPayload::MemcpyD2H { .. } => "memcpy_d2h",
            OpPayload::Malloc { .. } => "malloc",
            OpPayload::Free { .. } => "free",
            OpPayload::EventRecord { .. } => "event_record",
        }
    }
}

/// One interned kernel descriptor (see [`DescTable`]).
#[derive(Debug)]
struct DescSlot {
    /// The engine's own handle on the descriptor; `None` while the slot is
    /// free. While `Some`, it pins the allocation, so the address the
    /// index keys on cannot be reused and `Arc::get_mut` cannot mutate it.
    desc: Option<Arc<KernelDesc>>,
    /// Submitted, unfinished ops referencing the slot (a plain integer; no
    /// atomic refcount update per op).
    live: u32,
    /// `KernelDesc::sm_needed` for the engine's spec, computed once when
    /// the descriptor is interned.
    sm_needed: u32,
}

/// Smallest slot count at which [`DescTable`] sweeps before growing. After
/// a sweep the next one waits until the table has doubled past the slots
/// still referenced, so sweeps cost O(1) amortized per intern and the table
/// never holds more than `max(DESC_SWEEP_MIN, 2 × p)` slots, where `p` is
/// the peak number of descriptors referenced at once (by an unfinished op
/// or by a caller's `Arc`).
const DESC_SWEEP_MIN: usize = 64;

/// Hasher for descriptor addresses: one multiply by 2^64 / φ (Fibonacci
/// hashing), with the high half folded into the low half so that both the
/// bucket bits and the tag bits of the map depend on every address bit.
/// Addresses come from the allocator, not from outside the program, so no
/// protection against crafted collisions is needed.
#[derive(Default)]
struct PtrHasher(u64);

impl Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// The engine's interned kernel descriptors, indexed by `Arc` address.
///
/// A descriptor is validated and its `sm_needed` computed once per engine,
/// when its address is first seen; every later submit of the same `Arc`
/// (or a clone of it) is one hash lookup and a counter bump.
///
/// Pointer identity is sound because every indexed address is pinned by
/// the slot's own `Arc`: the allocation stays alive, so no other
/// descriptor can appear at that address, and the shared `Arc` cannot be
/// mutated in place. A slot whose last op finished stays indexed while a
/// caller still holds the `Arc` (the next submit of it hits), and is freed
/// and unindexed when the engine holds the only reference — at once in
/// [`DescTable::release`], or by the sweep that runs before the table grows
/// for slots whose callers let go later. Fresh descriptors per submit (a
/// drifted kernel, a serving step) therefore keep the table bounded.
#[derive(Debug, Default)]
struct DescTable {
    slots: Vec<DescSlot>,
    /// Free slots (`desc == None`), reused before the table grows.
    free: Vec<u32>,
    /// `Arc::as_ptr` address → slot, for every occupied slot.
    index: HashMap<usize, u32, BuildHasherDefault<PtrHasher>>,
    /// Slot count at which the next growth sweeps first.
    sweep_at: usize,
    /// Kernel submits that reached the table (introspection).
    interns: u64,
    /// Interns that missed the index and validated a descriptor.
    misses: u64,
}

impl DescTable {
    /// Interns `k` and counts one more live op on its slot.
    fn intern(&mut self, k: &Arc<KernelDesc>, spec: &GpuSpec) -> Result<u32, GpuError> {
        self.interns += 1;
        let addr = Arc::as_ptr(k) as usize;
        if let Some(&idx) = self.index.get(&addr) {
            self.slots[idx as usize].live += 1;
            return Ok(idx);
        }
        self.misses += 1;
        k.validate()?;
        let slot = DescSlot {
            desc: Some(Arc::clone(k)),
            live: 1,
            sm_needed: k.sm_needed(spec),
        };
        let idx = match self.free.pop().or_else(|| self.sweep()) {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(addr, idx);
        Ok(idx)
    }

    /// Drops one live op from slot `idx`, freeing the slot when that was
    /// the last op and no caller holds the descriptor any more.
    fn release(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.live -= 1;
        if slot.live == 0 && slot.desc.as_ref().is_some_and(|d| Arc::strong_count(d) == 1) {
            self.free_slot(idx);
        }
    }

    fn free_slot(&mut self, idx: u32) {
        let desc = self.slots[idx as usize].desc.take().expect("freeing an occupied slot");
        self.index.remove(&(Arc::as_ptr(&desc) as usize));
        self.free.push(idx);
    }

    /// Before the table grows past `sweep_at`: frees every idle slot whose
    /// descriptor only the engine still holds, and returns one of them.
    fn sweep(&mut self) -> Option<u32> {
        if self.slots.len() < self.sweep_at.max(DESC_SWEEP_MIN) {
            return None;
        }
        for i in 0..self.slots.len() {
            let s = &self.slots[i];
            if s.live == 0 && s.desc.as_ref().is_some_and(|d| Arc::strong_count(d) == 1) {
                self.free_slot(i as u32);
            }
        }
        self.sweep_at = 2 * (self.slots.len() - self.free.len());
        self.free.pop()
    }

    /// The descriptor in occupied slot `idx`.
    #[inline]
    fn desc(&self, idx: u32) -> &KernelDesc {
        self.slots[idx as usize].desc.as_ref().expect("occupied descriptor slot")
    }
}

/// Ground-truth submit/complete record emitted by the engine when its event
/// log is enabled (see [`GpuEngine::enable_event_log`]).
///
/// The log is the authoritative, policy-independent account of what entered
/// and left the device: the validation oracle replays it to reconstruct the
/// true in-flight set and cross-check scheduler bookkeeping against it.
/// Events are appended in device-time order.
#[derive(Debug, Clone)]
pub struct EngineEvent {
    /// The operation the event concerns.
    pub op: OpId,
    /// Stream the op was submitted on.
    pub stream: StreamId,
    /// Device time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: EngineEventKind,
}

/// Kind of an [`EngineEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEventKind {
    /// The op entered the device (queued on its stream).
    Submitted {
        /// Op kind label (`"kernel"`, `"memcpy_h2d"`, ...).
        label: &'static str,
        /// True for kernels.
        is_kernel: bool,
        /// True for synchronous (`cudaMemcpy`-style) copies.
        blocking: bool,
    },
    /// The op finished and its completion was recorded.
    Completed,
    /// The op finished with an injected fault (see [`crate::fault`]).
    Faulted,
    /// The op was killed by a sticky device fault or an explicit
    /// [`GpuEngine::reset_device`] before it could finish.
    Aborted,
    /// The device was reset (sticky fault cleared, all work aborted). The
    /// event's `op`/`stream` carry the sentinels [`RESET_OP`]/[`RESET_STREAM`].
    DeviceReset,
}

/// Sentinel op id carried by [`EngineEventKind::DeviceReset`] events.
pub const RESET_OP: OpId = OpId(u64::MAX);
/// Sentinel stream id carried by [`EngineEventKind::DeviceReset`] events.
pub const RESET_STREAM: StreamId = StreamId(u32::MAX);

/// How a submitted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// Finished normally (includes capacity-OOM mallocs, which report
    /// `alloc: None` but did execute).
    Ok,
    /// Finished with an injected fault (kernel fault, copy failure, or
    /// malloc failure).
    Faulted,
    /// Killed before finishing by a sticky device fault or a device reset.
    Aborted,
}

/// A finished operation, reported once via [`GpuEngine::drain_completions`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// The finished operation.
    pub op: OpId,
    /// Stream it ran on.
    pub stream: StreamId,
    /// Completion time.
    pub at: SimTime,
    /// For `Malloc` ops, the resulting allocation.
    pub alloc: Option<AllocId>,
    /// Operation kind label (for tracing).
    pub kind: &'static str,
    /// For kernels: time the kernel was dispatched onto SMs.
    pub dispatched_at: Option<SimTime>,
    /// True when the op ever ran below its solo rate (kernels sharing the
    /// device, copies sharing the PCIe link). A `false` here certifies that
    /// `at - dispatched_at` *is* the solo duration — the clean-sample
    /// predicate the online profiler keys on.
    pub interfered: bool,
    /// How the operation ended.
    pub status: CompletionStatus,
}

/// `OpState::dispatched_at` value for an op still waiting in its stream
/// queue. `SimTime::MAX` can never be a real dispatch time: an engine at
/// `now == SimTime::MAX` could not advance further to finish anything.
const UNDISPATCHED: SimTime = SimTime::MAX;

#[derive(Debug, Clone)]
struct OpState {
    stream: StreamId,
    kind: OpPayload,
    submitted_at: SimTime,
    /// Remaining solo-execution work in nanoseconds (queued kernels, up to
    /// dispatch) or remaining bytes (copies). A *running* kernel's remaining
    /// work lives in the dense `GpuEngine::kslots` column instead — this
    /// field is not updated while the kernel executes.
    remaining: f64,
    /// Current progress rate (copies only: bytes/sec). Running kernels keep
    /// their rates in the evaluator's dense output column.
    rate: f64,
    /// Dispatch time, or [`UNDISPATCHED`] while queued. The sentinel (instead
    /// of `Option<SimTime>`) keeps `OpState` at 64 bytes — one cache line per
    /// slab slot.
    dispatched_at: SimTime,
    /// Set whenever a rate refresh leaves the op below its solo rate.
    interfered: bool,
    /// Injected fault decided at submit time, if any.
    fault: Option<FaultKind>,
    /// Epoch of the op's live rate-class heap entry; superseded or recycled
    /// entries fail the epoch check and are discarded lazily.
    watch_epoch: u64,
}

/// `KSlot::class` value for a running kernel that belongs to no rate class
/// (its current rate is exactly 0.0: stalled, making no progress, invisible
/// to completion prediction until a rate change re-classes it).
const NO_CLASS: u32 = u32::MAX;

/// Per running-kernel lazy-progress state, parallel to
/// `GpuEngine::running_kernels`. One struct (not three parallel columns) so
/// the per-completion compact pass shifts a single contiguous array.
#[derive(Debug, Clone, Copy)]
struct KSlot {
    /// Remaining solo-work nanoseconds *as of* the class virtual time
    /// recorded in `sjoin` (for classless kernels: the literal remainder).
    rem: f64,
    /// Class virtual time at join / last materialization; the current
    /// remainder materializes as `rem - (class.s - sjoin)`.
    sjoin: f64,
    /// Rate-class slab index, or [`NO_CLASS`].
    class: u32,
}

/// The kernel running alone on the device, kept out of the interference
/// evaluator and out of its rate class's heap (DESIGN.md §4, "Lone
/// kernels"). Alone, a kernel is granted every SM it needs (`sm_needed` is
/// capped at the device's SM count) and runs at exactly its solo rate 1.0,
/// so there is nothing to evaluate, and its completion instant is fixed
/// once, when the first refresh after its dispatch rates it.
#[derive(Debug, Clone, Copy)]
struct Solo {
    /// The evaluator input the general path would hold for it: no SMs
    /// granted until it is rated, every SM it needs from then on.
    load: KernelLoad,
    /// The evaluator output the general path would hold for it: a
    /// zero-rate placeholder until it is rated.
    rate: KernelRate,
    /// Completion instant, fixed when it is rated; `None` before.
    done_at: Option<SimTime>,
}

/// Min-heap entry of a rate class: the member's *completion key*
/// `S_c(join) + remaining(join)` — the class virtual time at which the
/// member's work runs out. `key_bits` stores the key's f64 bit pattern;
/// keys are non-negative finite, so the integer bit order equals the
/// numeric order (and `id`/`epoch` only break exact ties deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ClassEntry {
    key_bits: u64,
    id: u64,
    epoch: u64,
}

/// Hand-rolled binary min-heap of [`ClassEntry`], replacing
/// `std::collections::BinaryHeap` for one hot-path reason: `BinaryHeap::pop`
/// sifts the displaced leaf *to the bottom* unconditionally (optimal for
/// random keys — fewer comparisons on average), which walks the full tree
/// height even when every key is equal. The engine's dominant contended
/// pattern is exactly that degenerate case: a batch of same-rate kernels
/// dispatched at one instant all share one completion key, and the classic
/// early-exit sift-down below pops them in O(1) comparisons each instead of
/// O(log n). Order among equal keys is irrelevant to observable behavior:
/// equal keys materialize to equal remaining work (`key - s`), stamping is
/// order-independent, and completion order comes from the position-ordered
/// compact pass, never from pop order.
#[derive(Debug, Default)]
struct MinHeap {
    v: Vec<ClassEntry>,
}

impl MinHeap {
    fn new() -> Self {
        Self { v: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn clear(&mut self) {
        self.v.clear();
    }

    fn peek(&self) -> Option<&ClassEntry> {
        self.v.first()
    }

    fn push(&mut self, e: ClassEntry) {
        self.v.push(e);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if self.v[p] <= self.v[i] {
                break;
            }
            self.v.swap(i, p);
            i = p;
        }
    }

    fn pop(&mut self) -> Option<ClassEntry> {
        let n = self.v.len();
        if n == 0 {
            return None;
        }
        self.v.swap(0, n - 1);
        let top = self.v.pop();
        let n = self.v.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.v[r] < self.v[l] { r } else { l };
            if self.v[i] <= self.v[c] {
                break;
            }
            self.v.swap(i, c);
            i = c;
        }
        top
    }
}

/// A cohort of running kernels currently progressing at one common rate
/// (bitwise), carrying the lazily-integrated *virtual time*
/// `s = ∫ rate dt` since the class was created. A member's remaining work
/// is materialized on demand as `KSlot::rem - (s - KSlot::sjoin)`; within the
/// class, completion order is join-key order, so one heap peek per class
/// replaces the dense per-kernel ETA scan.
///
/// Classes are *cohorts*, not rate buckets: when the evaluator changes the
/// rate of every member at once to one common value (the dominant
/// steady-state pattern — e.g. all starved kernels slow down together when
/// a new kernel dispatches), the class *moves wholesale*: only `rate`
/// swaps, `s` and the heap stay, and no member is touched.
#[derive(Debug)]
struct RateClass {
    /// Common progress rate of every member (solo-sec per sec).
    rate: f64,
    /// Accumulated service since class creation: `s += rate * dt` per
    /// integrate. At unit rate this is an exact integer-nanosecond count
    /// (f64 sums of integers below 2^53 are exact), which keeps unit-rate
    /// completion predictions bitwise equal to the eager per-event scan.
    s: f64,
    /// Live member count (the heap may additionally hold stale entries).
    members: u32,
    /// True while allocated; dead classes sit on the free list.
    alive: bool,
    /// Min-heap of member completion keys (stale entries dropped lazily by
    /// the per-op epoch check).
    heap: MinHeap,
    /// Per-refresh scratch for the wholesale-move decision: how many
    /// members changed rate this refresh, the first mover's new rate, and
    /// whether all movers agree on it.
    delta_count: u32,
    cand_bits: u64,
    cand_uniform: bool,
    /// The class was wholesale-moved in the current delta pass.
    moved: bool,
    /// Cached completion prediction for the heap-top entry, **unit-rate
    /// classes only**: at rate 1.0 the predicted wall-clock instant is
    /// invariant while the top entry stays put (virtual time and wall time
    /// advance in lockstep and the arithmetic is exact integers), so
    /// `earliest_completion` reuses it instead of re-deriving an f64
    /// division + ceil per event. Identified by the top entry's
    /// (key, epoch); `pred_epoch == 0` matches no live entry (invalid).
    pred_at: SimTime,
    pred_key: u64,
    pred_epoch: u64,
}

impl RateClass {
    fn new(rate: f64) -> Self {
        RateClass {
            rate,
            s: 0.0,
            members: 0,
            alive: true,
            heap: MinHeap::new(),
            delta_count: 0,
            cand_bits: 0,
            cand_uniform: false,
            moved: false,
            pred_at: SimTime::ZERO,
            pred_key: 0,
            pred_epoch: 0,
        }
    }
}

/// What [`GpuEngine::dispatch_head`] did with a stream's head-of-queue.
enum HeadOutcome {
    /// Nothing dispatchable (empty queue, occupied slot, or a gate held).
    None,
    /// A kernel started running (the stream slot is now occupied).
    Kernel,
    /// A copy started running (the stream slot is now occupied).
    Copy,
    /// A sync op took the slot and requested a device-wide drain.
    Sync,
    /// An event record completed instantly (the slot stays free).
    Event,
}

/// `x.ceil() as u64`, bit for bit, without calling `f64::ceil`: baseline
/// x86-64 has no `roundsd`, so `ceil` is a libm call on the per-prediction
/// path. Below 2^63 the `i64` round trip is exact and short (x86-64 has no
/// single instruction for `u64 -> f64`): truncate, add one when a fraction
/// was cut off, and clamp at 0 as the `as u64` cast of a negative ceiling
/// does. At or above 2^63 every f64 is an integer, so the saturating cast
/// already is the ceiling (`u64::MAX` from 2^64 on); NaN lands there too
/// and gives 0, as `NaN.ceil() as u64` does.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if x < TWO_POW_63 {
        let t = x as i64;
        (t + i64::from((t as f64) < x)).max(0) as u64
    } else {
        x as u64
    }
}

/// `x == x.trunc()`, bit for bit, without calling `f64::trunc` (a libm
/// call on baseline x86-64). Every finite f64 of magnitude `>= 2^52` is an
/// integer, and so are the infinities (`inf.trunc() == inf`); below that
/// the `i64` round trip is exact. NaN compares unequal either way.
#[inline]
fn is_integral(x: f64) -> bool {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    x.abs() >= TWO_POW_52 || (x as i64) as f64 == x
}

/// Time for a copy with `remaining` bytes at `rate` bytes/sec to finish,
/// rounded *up* to at least one nanosecond. Rounding up (never to zero)
/// guarantees the engine makes progress: predicting a completion at `now`
/// for an unfinished copy would loop forever. A non-finite quotient or one
/// whose ceiling reaches 2^64 ns predicts no completion (`SimTime::MAX`).
fn copy_eta(remaining: f64, rate: f64) -> SimTime {
    let ns = remaining / rate * 1e9;
    // `ceil(ns)` is finite iff `ns` is, and no f64 lies strictly between
    // 2^64 - 2048 and 2^64, so `ceil(ns) >= 2^64` iff `ns >= 2^64`.
    if !ns.is_finite() || ns >= u64::MAX as f64 {
        return SimTime::MAX;
    }
    SimTime::from_nanos(ceil_u64(ns).max(1))
}

/// Time for a kernel with `remaining` solo-nanoseconds of work progressing at
/// `rate` (solo-sec per sec) to finish, rounded *up* to at least one
/// nanosecond — the same progress guarantee as [`copy_eta`].
///
/// Rounding choice: an unfinished running kernel always has
/// `remaining > 0.5 ns` (the completion epsilon) and `rate <= 1.0` (no kernel
/// beats its solo rate), so `ceil(remaining / rate) >= 1` already; the
/// `max(1)` clamp is a safety net, not a behaviour change. This single
/// helper replaces two near-duplicate scans that differed only in clamping
/// (`max(1.0)` vs `max(0.0)`) — deliberately unified to the progress-safe
/// variant. The value is `ceil(remaining / rate).max(1.0) as u64` for
/// every input, NaN included (both give 1).
fn kernel_eta(remaining: f64, rate: f64) -> SimTime {
    SimTime::from_nanos(ceil_u64(remaining / rate).max(1))
}

/// The simulated GPU device.
#[derive(Debug)]
pub struct GpuEngine {
    spec: GpuSpec,
    /// Dense per-stream state, indexed by `StreamId.0`.
    streams: Vec<StreamState>,
    /// Stream visit order for dispatch: sorted by (priority urgency desc,
    /// creation order). Recomputed only in [`GpuEngine::create_stream`],
    /// never in the dispatch loop (priorities are fixed at creation).
    dispatch_order: Vec<u32>,
    /// Op slab: `ops[id]` holds the live op with that id. Indices are
    /// recycled through `free_ops` after their completion is drained.
    ops: Vec<Option<OpState>>,
    /// Slab slots available for new ops.
    free_ops: Vec<u64>,
    /// Slots of finished ops whose completions are not yet drained; moved to
    /// `free_ops` in [`GpuEngine::drain_completions`] so an undrained
    /// completion's op id can never be reused.
    retired_ops: Vec<u64>,
    running_kernels: Vec<u64>,
    /// Lazy-progress state of each running kernel (remaining work at join,
    /// join-time virtual time, class index), parallel to `running_kernels`.
    /// Kept dense (instead of on the op slab) so the per-round
    /// stamp/compact/predict passes stream over contiguous memory — the
    /// evaluator's `loads`/`rates` plus this one — without chasing slab
    /// entries.
    kslots: Vec<KSlot>,
    running_copies: Vec<u64>,
    blocking_copies: usize,
    sync_requested: bool,
    /// Dense event-signalled flags, indexed by `EventId.0`.
    events: Vec<bool>,
    memory: MemoryLedger,
    util: UtilAccumulator,
    completions: Vec<Completion>,
    trace: Option<ExecTrace>,
    now: SimTime,
    next_dispatch_seq: u64,
    rates_dirty: bool,
    /// Copy membership changed since the last refresh (PCIe shares and
    /// kernel rates are refreshed independently).
    copies_dirty: bool,
    /// Incremental interference evaluator; its loads mirror
    /// `running_kernels` index-for-index, except while `solo` holds the
    /// one running kernel (the evaluator is then empty).
    inc: IncrementalEval,
    /// The kernel running alone, while it stays alone (see [`Solo`]). It
    /// is still in `running_kernels`, `kslots` and `pos_of`.
    solo: Option<Solo>,
    /// Rate-class slab: cohorts of running kernels progressing at one common
    /// rate, each carrying a lazily-integrated virtual time. Slots recycle
    /// through `free_classes` when their last member leaves.
    classes: Vec<RateClass>,
    /// Dead `classes` slots available for reuse.
    free_classes: Vec<u32>,
    /// An emptied *unit-rate* class kept alive for immediate reuse instead
    /// of being freed: the dominant steady-state event is "a unit-rate
    /// kernel completes, the same stream's next kernel dispatches", which
    /// would otherwise free and re-create the class every event. Reuse is
    /// exact: a unit class's virtual time is an integer nanosecond count,
    /// so joining at `s = S0` and materializing `rem - (s - S0)` is bitwise
    /// the fresh-class result. Evicted (freed for real) when another class
    /// empties while this one is still parked and unclaimed.
    parked_class: Option<u32>,
    /// Number of currently alive classes.
    live_class_count: u32,
    /// High-water mark of `live_class_count` (bench/introspection).
    class_peak: u32,
    /// Scratch: class indices touched by the current rate-delta pass.
    touched_classes: Vec<u32>,
    /// Scratch: copy of the evaluator's rate-delta positions (taken before
    /// mutating class state, to end the borrow of `self.inc`).
    delta_scratch: Vec<u32>,
    /// Op id → current position in `running_kernels` (stale for non-running
    /// ops; only read for ids known to be running).
    pos_of: Vec<u32>,
    /// Cached device-wide utilization totals over the current rate set;
    /// recomputed only when a refresh changes rates.
    totals: UtilTotals,
    /// Scratch: not-yet-finished heap entries popped during the completion
    /// stamp pass, re-pushed after the pop loop (immediate re-push would
    /// re-pop forever).
    scratch_entries: Vec<ClassEntry>,
    /// Streams that had an op finish in the last `complete_finished` pass —
    /// the only streams whose heads can newly dispatch, barring gates.
    completed_streams: Vec<u32>,
    /// A cross-stream dispatch gate may have opened in the last completion
    /// pass (a blocking copy drained, a sync resolved, an abort): fall back
    /// to the full dispatch sweep instead of the completed-streams fast path.
    gate_released: bool,
    /// Monotonic source of class-entry epochs (0 reserved for "no entry").
    next_watch_epoch: u64,
    /// Stream id → rank in `dispatch_order` (inverse permutation), so the
    /// completion-driven dispatch fast path can visit candidate streams in
    /// exactly the full sweep's order.
    stream_rank: Vec<u32>,
    /// Times a kernel's remaining work was materialized out of its class
    /// (bench counter).
    materializations: u64,
    /// Times `drain_completions_into` had to grow the caller's buffer
    /// (debug counter: steady-state drains should never allocate).
    drain_reallocs: u64,
    /// Completions recorded since engine creation, any status.
    ops_completed: u64,
    /// Scratch: ids collected by `complete_finished` / `apply_sync_ops`.
    scratch_ids: Vec<u64>,
    /// Scratch: finished positions within `running_kernels`.
    scratch_pos: Vec<u32>,
    /// Ground-truth submit/complete log for the validation oracle. `None`
    /// (the default) keeps the hot path to a single branch per op.
    event_log: Option<Vec<EngineEvent>>,
    /// Interned kernel descriptors referenced by [`OpPayload::Kernel`]
    /// indices.
    descs: DescTable,
    /// Result of the last real `earliest_completion` scan and the `now` it
    /// was taken at. Valid while `now` is unchanged: every mutation that
    /// can move a prediction sets `rates_dirty` or `copies_dirty` (and
    /// `refresh_rates` clears the memo when it finds either) or moves `now`.
    next_event_memo: Option<(SimTime, Option<SimTime>)>,
    /// Real `earliest_completion` scans, memo hits excluded (introspection).
    completion_scans: u64,
    /// Fault injector, present only for a non-empty [`FaultPlan`]: the
    /// fault-free hot path pays one `None` branch per submit.
    fault: Option<FaultInjector>,
    /// Sticky CUDA-style device fault: set when a `KernelFault` op finishes,
    /// cleared only by [`GpuEngine::reset_device`]. While set, every submit
    /// returns [`GpuError::DeviceFault`] and dispatch stops.
    device_faulted: bool,
    /// A `KernelFault` completion happened in the current
    /// `complete_finished` pass; the sticky abort applies after the pass so
    /// sibling completions at the same instant are still delivered.
    device_fault_pending: bool,
}

impl GpuEngine {
    /// Creates a device from a spec. `record_timeline` enables the full
    /// utilization timeline (needed only for figure experiments).
    pub fn new(spec: GpuSpec, record_timeline: bool) -> Self {
        let memory = MemoryLedger::new(spec.memory_capacity);
        let inc = IncrementalEval::new(ModelParams::from(&spec));
        GpuEngine {
            spec,
            streams: Vec::new(),
            dispatch_order: Vec::new(),
            ops: Vec::new(),
            free_ops: Vec::new(),
            retired_ops: Vec::new(),
            running_kernels: Vec::new(),
            kslots: Vec::new(),
            running_copies: Vec::new(),
            blocking_copies: 0,
            sync_requested: false,
            events: Vec::new(),
            memory,
            util: UtilAccumulator::new(record_timeline),
            completions: Vec::new(),
            trace: None,
            now: SimTime::ZERO,
            next_dispatch_seq: 0,
            rates_dirty: false,
            copies_dirty: false,
            inc,
            solo: None,
            classes: Vec::new(),
            free_classes: Vec::new(),
            parked_class: None,
            live_class_count: 0,
            class_peak: 0,
            touched_classes: Vec::new(),
            delta_scratch: Vec::new(),
            pos_of: Vec::new(),
            totals: UtilTotals::default(),
            scratch_entries: Vec::new(),
            completed_streams: Vec::new(),
            gate_released: false,
            next_watch_epoch: 0,
            stream_rank: Vec::new(),
            materializations: 0,
            drain_reallocs: 0,
            ops_completed: 0,
            scratch_ids: Vec::new(),
            scratch_pos: Vec::new(),
            event_log: None,
            descs: DescTable::default(),
            next_event_memo: None,
            completion_scans: 0,
            fault: None,
            device_faulted: false,
            device_fault_pending: false,
        }
    }

    /// Installs a fault plan. An [empty](FaultPlan::is_empty) plan is
    /// discarded entirely so the fault-free path stays byte-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = (!plan.is_empty()).then(|| FaultInjector::new(plan));
    }

    /// True while the device is in the sticky faulted state.
    pub fn device_faulted(&self) -> bool {
        self.device_faulted
    }

    /// Resets the device after a sticky fault (or preemptively, e.g. from a
    /// watchdog): aborts everything still queued or running, clears the
    /// sticky state, and logs a [`EngineEventKind::DeviceReset`] event.
    ///
    /// The memory ledger survives the reset — this models the lightweight
    /// context-recovery path where allocations are restored from the
    /// supervisor's ledger rather than re-played through `Malloc` ops.
    pub fn reset_device(&mut self) {
        let at = self.now;
        self.abort_all(at);
        self.device_faulted = false;
        self.device_fault_pending = false;
        if let Some(log) = &mut self.event_log {
            log.push(EngineEvent {
                op: RESET_OP,
                stream: RESET_STREAM,
                at,
                kind: EngineEventKind::DeviceReset,
            });
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current device time (last `advance_to`).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Creates a stream with the given priority.
    pub fn create_stream(&mut self, priority: StreamPriority) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState::new(priority));
        self.dispatch_order.push(id.0);
        // Cold path: re-derive the cached dispatch order so the hot loop
        // never sorts. Keys are unique (sid ties break the urgency), so an
        // unstable sort is deterministic.
        let streams = &self.streams;
        self.dispatch_order.sort_unstable_by_key(|&sid| {
            (
                std::cmp::Reverse(streams[sid as usize].priority.urgency()),
                sid,
            )
        });
        // Inverse permutation, so completion-driven dispatch can sort its
        // candidate streams into exactly the full sweep's visit order.
        self.stream_rank.resize(self.streams.len(), 0);
        for (rank, &sid) in self.dispatch_order.iter().enumerate() {
            self.stream_rank[sid as usize] = rank as u32;
        }
        id
    }

    /// Pre-sizes the per-op bookkeeping (op slab, completion buffer, retired
    /// list) for `additional` more submitted-but-undrained ops, so a client
    /// that knows its burst size pays no reallocation copies on the submit
    /// and completion paths. Purely an optimization hint — capacity, like
    /// `Vec::reserve`, never affects behaviour.
    pub fn reserve_ops(&mut self, additional: usize) {
        self.ops.reserve(additional);
        self.completions.reserve(additional);
        self.retired_ops.reserve(additional);
    }

    /// Creates an event object for `EventRecord` ops.
    pub fn create_event(&mut self) -> EventId {
        let id = EventId(self.events.len() as u64);
        self.events.push(false);
        id
    }

    /// Non-blocking `cudaEventQuery`: has the event been signalled?
    pub fn event_done(&self, event: EventId) -> Result<bool, GpuError> {
        self.events
            .get(event.0 as usize)
            .copied()
            .ok_or(GpuError::UnknownEvent(event.0))
    }

    /// Resets an event to unsignalled so it can be recorded again.
    pub fn event_reset(&mut self, event: EventId) -> Result<(), GpuError> {
        match self.events.get_mut(event.0 as usize) {
            Some(flag) => {
                *flag = false;
                Ok(())
            }
            None => Err(GpuError::UnknownEvent(event.0)),
        }
    }

    /// Submits an operation onto a stream at the current device time.
    ///
    /// The caller must have called [`GpuEngine::advance_to`] with the current
    /// simulated time first (debug-asserted).
    pub fn submit(&mut self, stream: StreamId, kind: OpKind) -> Result<OpId, GpuError> {
        match kind {
            OpKind::Kernel(k) => self.submit_kernel(stream, &k),
            OpKind::MemcpyH2D { bytes, blocking } => {
                self.submit_payload(stream, OpPayload::MemcpyH2D { blocking }, bytes as f64)
            }
            OpKind::MemcpyD2H { bytes, blocking } => {
                self.submit_payload(stream, OpPayload::MemcpyD2H { blocking }, bytes as f64)
            }
            OpKind::Malloc { bytes } => {
                self.submit_payload(stream, OpPayload::Malloc { bytes }, 0.0)
            }
            OpKind::Free { alloc } => self.submit_payload(stream, OpPayload::Free { alloc }, 0.0),
            OpKind::EventRecord { event } => {
                self.submit_payload(stream, OpPayload::EventRecord { event }, 0.0)
            }
        }
    }

    /// Submits a kernel launch by reference — the hot-path equivalent of
    /// [`GpuEngine::submit`] with [`OpKind::Kernel`]. The descriptor is
    /// interned by address (see `DescTable`): the first submit of an `Arc`
    /// validates it and clones it once; later submits of that `Arc`, or of
    /// clones of it, are a hash lookup with no validation and no refcount
    /// update.
    pub fn submit_kernel(&mut self, stream: StreamId, k: &Arc<KernelDesc>) -> Result<OpId, GpuError> {
        if self.device_faulted {
            return Err(GpuError::DeviceFault);
        }
        let idx = self.descs.intern(k, &self.spec)?;
        if self.streams.get(stream.0 as usize).is_none() {
            self.descs.release(idx);
            return Err(GpuError::UnknownStream(stream.0));
        }
        let solo = self.descs.desc(idx).solo_duration.as_nanos() as f64;
        self.submit_payload(stream, OpPayload::Kernel(idx), solo)
    }

    /// Common submit tail shared by every op kind. `remaining` is the solo
    /// work (nanoseconds for kernels, bytes for copies, 0 otherwise).
    fn submit_payload(
        &mut self,
        stream: StreamId,
        kind: OpPayload,
        mut remaining: f64,
    ) -> Result<OpId, GpuError> {
        if self.device_faulted {
            return Err(GpuError::DeviceFault);
        }
        let st = self
            .streams
            .get_mut(stream.0 as usize)
            .ok_or(GpuError::UnknownStream(stream.0))?;
        // Fault decision: exactly one injector call per accepted submit, in
        // submission order, so decisions are a pure function of the seed and
        // the submit ordinal.
        let fault = match &mut self.fault {
            Some(inj) => {
                let category = match &kind {
                    OpPayload::Kernel(_) => FaultCategory::Kernel {
                        best_effort: st.priority < StreamPriority::HIGH,
                    },
                    OpPayload::MemcpyH2D { .. } | OpPayload::MemcpyD2H { .. } => {
                        FaultCategory::Copy
                    }
                    OpPayload::Malloc { .. } => FaultCategory::Malloc,
                    OpPayload::Free { .. } | OpPayload::EventRecord { .. } => FaultCategory::Other,
                };
                inj.decide(category)
            }
            None => None,
        };
        if fault == Some(FaultKind::Stall) && matches!(kind, OpPayload::Kernel(_)) {
            // A stalled kernel silently carries extra solo work; it still
            // completes normally unless a supervisor watchdog fires first.
            let stall = self.fault.as_ref().expect("stall implies injector").stall();
            remaining += stall.as_nanos() as f64;
        }
        let log_entry = self.event_log.is_some().then(|| {
            let blocking = matches!(
                kind,
                OpPayload::MemcpyH2D { blocking: true, .. }
                    | OpPayload::MemcpyD2H { blocking: true, .. }
            );
            EngineEventKind::Submitted {
                label: kind.label(),
                is_kernel: matches!(kind, OpPayload::Kernel(_)),
                blocking,
            }
        });
        let state = OpState {
            stream,
            kind,
            submitted_at: self.now,
            remaining,
            rate: 0.0,
            dispatched_at: UNDISPATCHED,
            // A stalled kernel completes with status Ok but carries hidden
            // extra work; its measured duration must never be mistaken for
            // a clean solo sample.
            interfered: fault == Some(FaultKind::Stall),
            fault,
            watch_epoch: 0,
        };
        let id = match self.free_ops.pop() {
            Some(slot) => {
                debug_assert!(self.ops[slot as usize].is_none(), "free slot is empty");
                self.ops[slot as usize] = Some(state);
                slot
            }
            None => {
                self.ops.push(Some(state));
                (self.ops.len() - 1) as u64
            }
        };
        st.queue.push_back(id);
        if let Some(kind) = log_entry {
            let at = self.now;
            self.event_log.as_mut().expect("log enabled").push(EngineEvent {
                op: OpId(id),
                stream,
                at,
                kind,
            });
        }
        // Only the submitted stream can have become dispatchable: every
        // earlier mutation ended in a dispatch fixpoint, and dispatching
        // never unblocks another stream. O(1) instead of O(streams).
        self.try_dispatch_from(stream.0 as usize);
        Ok(OpId(id))
    }

    /// True when any kernel or copy is executing.
    pub fn busy(&self) -> bool {
        !self.running_kernels.is_empty() || !self.running_copies.is_empty()
    }

    /// True when every stream is idle and nothing is running.
    pub fn fully_idle(&self) -> bool {
        !self.busy() && self.streams.iter().all(|s| s.is_idle())
    }

    /// Number of ops (queued + running) on a stream.
    pub fn stream_depth(&self, stream: StreamId) -> Result<usize, GpuError> {
        self.streams
            .get(stream.0 as usize)
            .map(|s| s.depth())
            .ok_or(GpuError::UnknownStream(stream.0))
    }

    /// The memory ledger (capacity accounting).
    pub fn memory(&self) -> &MemoryLedger {
        &self.memory
    }

    /// Immediate (synchronous) allocation, bypassing stream ordering.
    ///
    /// Real frameworks allocate model state up front before steady-state
    /// execution; this entry point models that setup phase. Steady-state
    /// allocations should go through [`OpKind::Malloc`] to pay the
    /// device-synchronization cost.
    pub fn alloc_immediate(&mut self, bytes: u64) -> Result<AllocId, GpuError> {
        self.memory.alloc(bytes)
    }

    /// Immediate release of an allocation made with
    /// [`GpuEngine::alloc_immediate`].
    pub fn free_immediate(&mut self, alloc: AllocId) -> Result<u64, GpuError> {
        self.memory.free(alloc)
    }

    /// Immediate in-place growth of a live allocation (KV-cache append).
    /// Paged-attention allocators extend a sequence's cache without a
    /// device sync, so growth bypasses stream ordering like
    /// [`GpuEngine::alloc_immediate`] does.
    pub fn grow_immediate(&mut self, alloc: AllocId, bytes: u64) -> Result<(), GpuError> {
        self.memory.grow(alloc, bytes)
    }

    /// Utilization averages so far.
    pub fn util_summary(&self) -> UtilSummary {
        self.util.summary()
    }

    /// The utilization accumulator (timeline access for figures).
    pub fn util(&self) -> &UtilAccumulator {
        &self.util
    }

    /// Takes all completions recorded since the last drain.
    ///
    /// Draining also recycles the op slots of the reported completions:
    /// their ids become eligible for reuse by subsequent submissions.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.free_ops.append(&mut self.retired_ops);
        // Pre-size the next batch to the size just drained: steady-state
        // consumers drain similar batch sizes, and starting from capacity 0
        // would re-pay the doubling reallocations on every cycle.
        let next = Vec::with_capacity(self.completions.len());
        std::mem::replace(&mut self.completions, next)
    }

    /// Allocation-free variant of [`GpuEngine::drain_completions`]: swaps
    /// the engine's completion buffer with `out` (cleared first), so a
    /// caller that hands the same buffer back every drain recycles two
    /// buffers indefinitely — steady-state drains allocate nothing on
    /// either side, where the by-value drain re-paid one fresh allocation
    /// per cycle. [`GpuEngine::drain_realloc_count`] counts the drains
    /// where the handed-back buffer was too small to hold a batch of the
    /// size just produced (i.e. the next fill may still have to grow it).
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        self.free_ops.append(&mut self.retired_ops);
        out.clear();
        if out.capacity() < self.completions.len() {
            self.drain_reallocs += 1;
        }
        std::mem::swap(out, &mut self.completions);
    }

    /// Enables the ground-truth submit/complete event log consumed by the
    /// validation oracle. Off by default; when off the only cost is one
    /// branch per submit and per completion.
    pub fn enable_event_log(&mut self) {
        if self.event_log.is_none() {
            self.event_log = Some(Vec::new());
        }
    }

    /// Takes all engine events recorded since the last drain (empty when the
    /// log is disabled). Events are in device-time order.
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Enables per-operation span recording (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(ExecTrace::default());
        }
    }

    /// The recorded execution trace, when enabled.
    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    /// Takes ownership of the recorded trace (disables further recording
    /// until [`GpuEngine::enable_trace`] is called again).
    pub fn take_trace(&mut self) -> Option<ExecTrace> {
        self.trace.take()
    }

    /// The next time something happens inside the device (a kernel or copy
    /// completes), or `None` when nothing is running.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.refresh_rates();
        self.earliest_completion()
    }

    /// Advances the device clock to `now`, executing work and recording
    /// completions along the way.
    ///
    /// One rate refresh per completion round: the loop-top refresh covers
    /// both the previous round's dispatches and the current round's
    /// predictions. Predicted ETAs are always >= 1 ns, so nothing can
    /// complete at `now` after a completion round at `now`: that round ends
    /// the loop without another scan (debug builds scan anyway and assert
    /// it).
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "advance_to must not move backwards");
        loop {
            self.refresh_rates();
            match self.earliest_completion() {
                Some(t) if t <= now => {
                    self.integrate(t);
                    self.complete_finished(t);
                    self.dispatch_after_completions();
                    if t == now {
                        break;
                    }
                }
                _ => {
                    self.integrate(now);
                    break;
                }
            }
        }
        // Ops dispatched in the final round still get their rates before
        // returning, so externally observable per-op state (rates,
        // interference flags) is identical to an eager refresh — e.g. a
        // device reset arriving before the next wake sees correct flags.
        self.refresh_rates();
        debug_assert!(
            self.scan_completions().is_none_or(|t| t > now),
            "a completion is still due at {now}"
        );
    }

    /// Interference-model evaluations that did any work (incremental or
    /// full) since engine creation. A refresh with no membership change and
    /// no dirty kernel is skipped and not counted, and a kernel that runs
    /// alone from dispatch to completion is never evaluated: a chain of
    /// kernels on one stream of an otherwise idle device counts none.
    pub fn eval_count(&self) -> u64 {
        self.inc.evals()
    }

    /// Evaluations that recomputed the whole running set (over-capacity
    /// rationing or wholesale invalidation) — the expensive path the
    /// incremental evaluator exists to avoid.
    pub fn eval_full_count(&self) -> u64 {
        self.inc.full_evals()
    }

    /// Over-capacity refreshes answered from the evaluator's steady-state
    /// composition memo instead of a recompute (cached output provably
    /// bitwise-identical; see `IncrementalEval::refresh`).
    pub fn eval_memo_count(&self) -> u64 {
        self.inc.memo_hits()
    }

    /// Number of currently alive rate classes (distinct concurrent rates).
    pub fn rate_class_count(&self) -> u32 {
        self.live_class_count
    }

    /// High-water mark of [`GpuEngine::rate_class_count`].
    pub fn rate_class_peak(&self) -> u32 {
        self.class_peak
    }

    /// Times a running kernel's remaining work was materialized out of its
    /// class's virtual time (rate changes and completion checks).
    pub fn materialization_count(&self) -> u64 {
        self.materializations
    }

    /// Drains where the buffer handed to
    /// [`GpuEngine::drain_completions_into`] was smaller than the batch
    /// just produced. Zero in steady state: two ping-ponged buffers stop
    /// growing once both have seen the peak batch size.
    pub fn drain_realloc_count(&self) -> u64 {
        self.drain_reallocs
    }

    /// Operations completed since engine creation, of any status (ok,
    /// faulted or aborted by a reset).
    pub fn completed_count(&self) -> u64 {
        self.ops_completed
    }

    /// Real completion scans since engine creation: next-event queries
    /// (from [`GpuEngine::next_event_time`] and the `advance_to` loop) that
    /// the memo of the last scan could not answer.
    pub fn completion_scan_count(&self) -> u64 {
        self.completion_scans
    }

    /// Kernel submits since engine creation that reached the descriptor
    /// table (accepted or rejected after the sticky-fault check).
    pub fn kernel_submit_count(&self) -> u64 {
        self.descs.interns
    }

    /// Kernel submits whose descriptor address was not interned yet, so the
    /// descriptor was validated (and, if valid, stored).
    pub fn desc_intern_miss_count(&self) -> u64 {
        self.descs.misses
    }

    /// Op ids of the currently running kernels, in running (dispatch)
    /// order — parallel to [`GpuEngine::materialized_remaining`] and
    /// [`GpuEngine::interference_rates`].
    pub fn running_kernel_ids(&self) -> &[u64] {
        &self.running_kernels
    }

    /// Force-materializes every running kernel's remaining solo-work
    /// nanoseconds (in running order) without disturbing the lazy state —
    /// the "external reader" materialization point. O(running);
    /// introspection for tests and oracles, not the hot path.
    pub fn materialized_remaining(&self) -> Vec<f64> {
        self.kslots
            .iter()
            .map(|k| {
                if k.class == NO_CLASS {
                    k.rem
                } else {
                    let c = &self.classes[k.class as usize];
                    k.rem - (c.s - k.sjoin)
                }
            })
            .collect()
    }

    /// Per running kernel (in running order): the rate of the class it
    /// belongs to, or 0.0 while stalled/classless. Introspection for the
    /// class-partition property tests.
    pub fn kernel_class_rates(&self) -> Vec<f64> {
        self.kslots
            .iter()
            .map(|k| {
                if k.class == NO_CLASS {
                    0.0
                } else {
                    self.classes[k.class as usize].rate
                }
            })
            .collect()
    }

    /// Alive rate classes as `(rate, member_count)`, in slab order.
    pub fn rate_classes(&self) -> Vec<(f64, u32)> {
        self.classes
            .iter()
            .filter(|c| c.alive)
            .map(|c| (c.rate, c.members))
            .collect()
    }

    /// Introspection for the differential equivalence harness: the current
    /// interference-model inputs, parallel to the running-kernel set. Valid
    /// after any refresh point ([`GpuEngine::advance_to`] /
    /// [`GpuEngine::next_event_time`]). A kernel running alone is not in
    /// the evaluator; it shows here exactly as the evaluator would hold it.
    pub fn interference_loads(&self) -> &[KernelLoad] {
        match &self.solo {
            Some(s) => std::slice::from_ref(&s.load),
            None => self.inc.loads(),
        }
    }

    /// The model outputs parallel to [`GpuEngine::interference_loads`].
    pub fn interference_rates(&self) -> &[KernelRate] {
        match &self.solo {
            Some(s) => std::slice::from_ref(&s.rate),
            None => self.inc.rates(),
        }
    }

    // ---- internals ----

    /// The live op with `id`. Panics when the slot is empty: the engine's
    /// running/queued lists only ever hold live ids.
    #[inline]
    fn op(&self, id: u64) -> &OpState {
        self.ops[id as usize].as_ref().expect("live op")
    }

    /// Earliest predicted completion among running kernels and copies
    /// (rates must be fresh — call [`GpuEngine::refresh_rates`] first).
    ///
    /// Answered from `next_event_memo` when nothing changed since the last
    /// scan: the world asks for the next event time several times per
    /// device time (after each submit and each drain), and 57–60% of the
    /// scans repeated one on unchanged state. Debug builds re-run the scan
    /// on every hit and assert that it agrees, so the whole test suite
    /// checks the invalidation rule.
    fn earliest_completion(&mut self) -> Option<SimTime> {
        if let Some((at, t)) = self.next_event_memo {
            if at == self.now {
                debug_assert_eq!(self.scan_completions(), t, "stale next-event memo at {at}");
                return t;
            }
        }
        self.completion_scans += 1;
        let t = self.scan_completions();
        self.next_event_memo = Some((self.now, t));
        t
    }

    /// The scan behind [`GpuEngine::earliest_completion`]. Ops with a zero
    /// rate are stalled and will be re-examined when another completion
    /// frees resources.
    ///
    /// Within a rate class, completion order is join-key order (`S_c(join) +
    /// remaining(join)`): every member progresses at the common rate, so the
    /// smallest key runs out of virtual time first. One heap peek per class
    /// — popping entries gone stale via the per-op epoch check — therefore
    /// replaces the old dense per-kernel ETA scan, and the peeked member's
    /// remaining work is materialized on the spot as
    /// `KSlot::rem - (S_c - S_c(join))`.
    ///
    /// Unit-rate classes stay *exact*: `S_c` is a sum of integer nanosecond
    /// deltas (exact in f64 below 2^53), subtracting an exact integer from
    /// the join-time remaining is exact (the magnitude shrinks), and
    /// `ceil(x - n) = ceil(x) - n`, so the predicted instant is bitwise the
    /// one an eager per-event decrement would produce.
    ///
    /// A kernel running alone is the only one running: its instant was
    /// fixed when it was rated (the same exact unit-rate arithmetic), so no
    /// class is walked. Unrated, it is invisible like any classless kernel.
    fn scan_completions(&mut self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let Self {
            ops,
            kslots,
            pos_of,
            classes,
            now,
            solo,
            ..
        } = self;
        let now = *now;
        if let Some(s) = solo {
            earliest = s.done_at;
        } else {
            for c in classes.iter_mut() {
                if c.members == 0 || c.rate <= 0.0 {
                    continue;
                }
                while let Some(&entry) = c.heap.peek() {
                    let live = ops[entry.id as usize]
                        .as_ref()
                        .is_some_and(|op| op.watch_epoch == entry.epoch);
                    if !live {
                        c.heap.pop();
                        continue;
                    }
                    // Unit-rate classes: the prediction for a fixed top entry is
                    // wall-clock invariant (exact integer arithmetic; `s` and
                    // `now` advance in lockstep), so reuse the cached instant
                    // and skip the division. Contended classes re-derive it —
                    // their rounding drifts with the evaluation point, and the
                    // drift is part of the pinned behaviour.
                    if c.rate.to_bits() == 1.0f64.to_bits()
                        && entry.key_bits == c.pred_key
                        && entry.epoch == c.pred_epoch
                    {
                        let t = c.pred_at;
                        earliest = Some(earliest.map_or(t, |e: SimTime| e.min(t)));
                        break;
                    }
                    let k = &kslots[pos_of[entry.id as usize] as usize];
                    let rem = k.rem - (c.s - k.sjoin);
                    let t = now + kernel_eta(rem, c.rate);
                    if c.rate.to_bits() == 1.0f64.to_bits() {
                        c.pred_key = entry.key_bits;
                        c.pred_epoch = entry.epoch;
                        c.pred_at = t;
                    }
                    earliest = Some(earliest.map_or(t, |e: SimTime| e.min(t)));
                    break;
                }
            }
        }
        for &cid in &self.running_copies {
            let op = self.op(cid);
            if op.rate > 0.0 {
                let t = now + copy_eta(op.remaining, op.rate);
                earliest = Some(earliest.map_or(t, |e: SimTime| e.min(t)));
            }
        }
        earliest
    }

    /// Recomputes kernel rates (incrementally) and copy bandwidth shares
    /// if dirty. Only kernels the incremental evaluator actually touched
    /// are copied back; everything else kept its rate bit-for-bit, so
    /// skipping the copy-back is observationally identical to the old full
    /// rewrite. Copy shares depend only on the copy count, so they refresh
    /// on their own `copies_dirty` flag (kernel events leave them alone).
    fn refresh_rates(&mut self) {
        if self.rates_dirty || self.copies_dirty {
            self.next_event_memo = None;
        }
        if self.rates_dirty {
            self.rates_dirty = false;
            let refreshed = self.inc.refresh();
            if refreshed != Refreshed::Unchanged {
                self.apply_rate_delta();
                self.totals = UtilTotals::recompute(self.inc.rates());
            }
            if self.solo.is_some_and(|s| s.done_at.is_none()) {
                self.rate_solo();
            }
        }

        // Copies: processor-share the PCIe link.
        if self.copies_dirty {
            self.copies_dirty = false;
            let n = self.running_copies.len();
            if n > 0 {
                let share = self.spec.pcie_bandwidth / n as f64;
                for i in 0..n {
                    let cid = self.running_copies[i];
                    let op = self.ops[cid as usize].as_mut().expect("running copy exists");
                    op.rate = share;
                    if n > 1 {
                        op.interfered = true;
                    }
                }
            }
        }
    }

    /// Applies the evaluator's rate-change feed ([`IncrementalEval::rate_delta`])
    /// to the class structure, O(changed positions + touched classes).
    ///
    /// Two passes over the delta. Pass 1 tallies, per touched class, how
    /// many members changed rate and whether they all agree on one new
    /// value. A class where *every* member moved to one agreed rate is
    /// moved **wholesale**: only `rate` swaps; `s`, the heap, and the
    /// join keys stay valid (relative completion order within the cohort is
    /// rate-independent). This is the dominant steady-state pattern — a
    /// co-running cohort slows down or speeds up together when a kernel
    /// dispatches or completes — and is what makes re-classing O(changes)
    /// instead of O(members). Pass 2 re-classes the remaining movers
    /// individually: leave the old class (materializing remaining work
    /// exactly at its current virtual time), join the class matching the
    /// new rate (created on demand; rate 0.0 means *stalled* and classless —
    /// no progress accrues, so there is nothing to integrate).
    fn apply_rate_delta(&mut self) {
        self.delta_scratch.clear();
        self.delta_scratch.extend_from_slice(self.inc.rate_delta());
        if self.delta_scratch.is_empty() {
            return;
        }
        // Pass 1: per-class tallies for the wholesale-move decision.
        self.touched_classes.clear();
        for i in 0..self.delta_scratch.len() {
            let pos = self.delta_scratch[i] as usize;
            let ci = self.kslots[pos].class;
            if ci == NO_CLASS {
                continue;
            }
            let bits = self.inc.rates()[pos].rate.to_bits();
            let c = &mut self.classes[ci as usize];
            if c.delta_count == 0 {
                self.touched_classes.push(ci);
                c.cand_bits = bits;
                c.cand_uniform = true;
            } else if c.cand_bits != bits {
                c.cand_uniform = false;
            }
            c.delta_count += 1;
        }
        for &ci in &self.touched_classes {
            let c = &mut self.classes[ci as usize];
            if c.cand_uniform && c.delta_count == c.members {
                c.rate = f64::from_bits(c.cand_bits);
                c.moved = true;
                // The wall-clock mapping of virtual time changed; a later
                // move back to rate 1.0 must not resurrect the old cache.
                c.pred_epoch = 0;
            }
        }
        // Pass 2: re-class movers whose class did not move with them.
        for i in 0..self.delta_scratch.len() {
            let pos = self.delta_scratch[i] as usize;
            let r = self.inc.rates()[pos].rate;
            if r < 1.0 - 1e-9 {
                let kid = self.running_kernels[pos];
                let op = self.ops[kid as usize].as_mut().expect("running op exists");
                op.interfered = true;
            }
            let ci = self.kslots[pos].class;
            if ci != NO_CLASS {
                let c = &self.classes[ci as usize];
                if c.moved || c.rate.to_bits() == r.to_bits() {
                    continue; // moved wholesale with its cohort
                }
                self.class_leave(pos);
            }
            if r > 0.0 {
                self.class_join(pos, r);
            }
        }
        // Reset the per-refresh scratch on every touched class. Freed slots
        // reused by pass-2 joins were re-initialized with zeroed tallies, so
        // re-zeroing them here is idempotent.
        for i in 0..self.touched_classes.len() {
            let c = &mut self.classes[self.touched_classes[i] as usize];
            c.delta_count = 0;
            c.moved = false;
        }
        self.touched_classes.clear();
    }

    /// Removes the kernel at running-position `pos` from its class,
    /// materializing its remaining work exactly at the class's current
    /// virtual time and invalidating its heap entry (epoch 0 matches no
    /// live entry; the stale one dies lazily).
    fn class_leave(&mut self, pos: usize) {
        let k = &mut self.kslots[pos];
        let ci = k.class as usize;
        let c = &mut self.classes[ci];
        k.rem -= c.s - k.sjoin;
        k.sjoin = 0.0;
        k.class = NO_CLASS;
        self.materializations += 1;
        let kid = self.running_kernels[pos];
        let op = self.ops[kid as usize].as_mut().expect("running op exists");
        op.watch_epoch = 0;
        c.members -= 1;
        if c.members == 0 {
            self.class_emptied(ci as u32);
        }
    }

    /// A class's last member just left: park it (unit-rate classes, kept
    /// alive for the next dispatch to reuse) or free its slot. Parking is
    /// restricted to unit-rate classes because only there is reuse bitwise
    /// equal to a fresh class (integer virtual time; see `parked_class`).
    fn class_emptied(&mut self, ci: u32) {
        debug_assert_eq!(self.classes[ci as usize].members, 0);
        if self.classes[ci as usize].rate.to_bits() == 1.0f64.to_bits() {
            if let Some(old) = self.parked_class.replace(ci) {
                if old != ci && self.classes[old as usize].members == 0 {
                    let oc = &mut self.classes[old as usize];
                    oc.alive = false;
                    oc.heap.clear();
                    self.free_classes.push(old);
                    self.live_class_count -= 1;
                }
            }
        } else {
            let c = &mut self.classes[ci as usize];
            c.alive = false;
            c.heap.clear();
            self.free_classes.push(ci);
            self.live_class_count -= 1;
        }
    }

    /// Adds the kernel at running-position `pos` (whose `KSlot::rem` is
    /// materialized) to the class running at `rate`, creating one on demand.
    fn class_join(&mut self, pos: usize, rate: f64) {
        let ci = self.class_for_rate(rate);
        let kid = self.running_kernels[pos];
        self.next_watch_epoch += 1;
        let epoch = self.next_watch_epoch;
        let op = self.ops[kid as usize].as_mut().expect("running op exists");
        op.watch_epoch = epoch;
        let c = &mut self.classes[ci as usize];
        c.members += 1;
        let k = &mut self.kslots[pos];
        k.class = ci;
        k.sjoin = c.s;
        let key = c.s + k.rem;
        c.heap.push(ClassEntry {
            key_bits: key.to_bits(),
            id: kid,
            epoch,
        });
    }

    /// Rates the kernel running alone at the first refresh after its
    /// dispatch, where the general path would grant it every SM it needs and
    /// `class_join` it at rate 1.0. It takes the same class slot, epoch,
    /// member count and `sjoin`, but pushes no heap entry: its completion
    /// instant is fixed here instead, with the unit-rate arithmetic the
    /// scan would use. The utilization totals are `UtilTotals::recompute`
    /// over its one rate.
    fn rate_solo(&mut self) {
        let ci = self.solo_class();
        let kid = self.running_kernels[0];
        self.next_watch_epoch += 1;
        let epoch = self.next_watch_epoch;
        self.ops[kid as usize].as_mut().expect("running op exists").watch_epoch = epoch;
        let c = &mut self.classes[ci as usize];
        c.members += 1;
        let k = &mut self.kslots[0];
        k.class = ci;
        k.sjoin = c.s;
        let done_at = self.now + kernel_eta(k.rem, 1.0);
        let s = self.solo.as_mut().expect("a lone kernel to rate");
        let l = &mut s.load;
        l.sm_granted = l.sm_needed;
        // Fully granted, the interleave multiplier is exactly 1.0 and one
        // kernel's demands stay under both roofs, so `demand * 1.0` is the
        // consumed share.
        s.rate = KernelRate {
            sm_granted: l.sm_needed,
            rate: 1.0,
            compute_used: l.compute_demand,
            mem_used: l.mem_demand,
        };
        s.done_at = Some(done_at);
        self.totals = UtilTotals::recompute(std::slice::from_ref(&s.rate));
    }

    /// The slot `class_for_rate(1.0)` returns when no other kernel runs,
    /// without its linear search. With nothing running, every alive class
    /// but the parked unit class has been freed, so the search can only
    /// find the parked class (when its virtual time is integral); failing
    /// that it allocates, which `class_for_rate` still does.
    fn solo_class(&mut self) -> u32 {
        debug_assert!(
            self.classes
                .iter()
                .enumerate()
                .all(|(i, c)| !c.alive || self.parked_class == Some(i as u32)),
            "an alive class besides the parked one while nothing runs"
        );
        match self.parked_class {
            Some(p) if is_integral(self.classes[p as usize].s) => {
                self.parked_class = None;
                p
            }
            _ => self.class_for_rate(1.0),
        }
    }

    /// A second kernel is dispatching beside the lone one: hand the lone
    /// kernel to the evaluator and its class heap exactly as the general
    /// path would hold them. Unrated, it enters ungranted, so the coming
    /// refresh still grants the same-instant dispatches in (urgency, seq)
    /// order; rated, it enters with its full grant and the heap entry
    /// `class_join` would have pushed.
    fn promote_solo(&mut self, s: Solo) {
        debug_assert!(self.inc.is_empty(), "the evaluator is empty while a kernel runs alone");
        self.inc.add(s.load);
        if s.done_at.is_some() {
            let kid = self.running_kernels[0];
            let k = self.kslots[0];
            let epoch = self.op(kid).watch_epoch;
            self.classes[k.class as usize].heap.push(ClassEntry {
                key_bits: (k.sjoin + k.rem).to_bits(),
                id: kid,
                epoch,
            });
        }
    }

    /// The alive class whose rate equals `rate` bitwise, allocated on
    /// demand (recycling dead slots, heap capacity included). Linear scan:
    /// the live class count is the number of *distinct* concurrent rates,
    /// which collapses to a handful under the sticky-grant evaluator; the
    /// degenerate all-rates-distinct case degrades to the old O(running)
    /// behaviour, never worse (see DESIGN.md §14).
    fn class_for_rate(&mut self, rate: f64) -> u32 {
        let bits = rate.to_bits();
        // Unit-rate exactness guard: a kernel joining at rate 1.0 must land
        // on a class whose virtual time is an exact integer (it advances by
        // integer nanoseconds from there), or its materializations pick up
        // the class's fractional residue. A unit class *can* carry a
        // fraction — a wholesale move from a contended rate keeps `s` — so
        // such classes are skipped and a parallel integer-based unit class
        // is created instead (classes are cohorts, not unique rate buckets).
        let unit = bits == 1.0f64.to_bits();
        for (i, c) in self.classes.iter().enumerate() {
            if c.alive && c.rate.to_bits() == bits && (!unit || is_integral(c.s)) {
                if self.parked_class == Some(i as u32) {
                    // Claimed: no longer eligible for parked eviction.
                    self.parked_class = None;
                }
                return i as u32;
            }
        }
        let ci = match self.free_classes.pop() {
            Some(ci) => {
                let c = &mut self.classes[ci as usize];
                debug_assert!(!c.alive && c.heap.is_empty());
                c.rate = rate;
                c.s = 0.0;
                c.members = 0;
                c.alive = true;
                c.delta_count = 0;
                c.cand_bits = 0;
                c.cand_uniform = false;
                c.moved = false;
                c.pred_epoch = 0;
                ci
            }
            None => {
                self.classes.push(RateClass::new(rate));
                (self.classes.len() - 1) as u32
            }
        };
        self.live_class_count += 1;
        self.class_peak = self.class_peak.max(self.live_class_count);
        ci
    }

    /// Integrates utilization and progress from `self.now` to `to`
    /// (rates must be fresh and constant over the interval).
    ///
    /// O(live classes + copies), not O(running kernels): per-kernel progress
    /// is folded into each class's virtual time (`s += rate * dt`, one
    /// accumulation per class) and materialized back into `KSlot::rem` only
    /// at rate changes, completion, or external reads; utilization comes
    /// from the cached [`UtilTotals`], which every refresh that changed a
    /// rate rebuilt (refresh always precedes integrate in the advance loop,
    /// so the cache is never stale here).
    fn integrate(&mut self, to: SimTime) {
        let dur = to - self.now;
        if dur.is_zero() {
            self.now = to;
            return;
        }
        let dt_ns = dur.as_nanos() as f64;
        let now = self.now;
        for c in self.classes.iter_mut() {
            if c.members > 0 {
                c.s += c.rate * dt_ns;
            }
        }
        self.util.add(
            now,
            dur,
            self.totals.compute.min(1.0),
            self.totals.mem_bw.min(1.0),
            (self.totals.sm_busy as f64 / self.spec.num_sms as f64).min(1.0),
        );
        let dt_s = dur.as_secs_f64();
        let Self {
            ops, running_copies, ..
        } = self;
        for &cid in running_copies.iter() {
            let op = ops[cid as usize].as_mut().expect("running copy");
            op.remaining -= op.rate * dt_s;
        }
        self.now = to;
    }

    /// Completes every running op whose remaining work reached ~zero.
    fn complete_finished(&mut self, at: SimTime) {
        const EPS: f64 = 0.5; // half a nanosecond of work / half a byte

        self.now = self.now.max(at);
        self.completed_streams.clear();
        self.gate_released = false;

        // Stamp pass: instead of scanning every running kernel's remaining
        // work, pop each class heap down to the completion frontier. A
        // member is *possibly* finished when its completion key is within
        // the class virtual time plus EPS; the small extra tolerance covers
        // the single rounding the key absorbed at push time, and the exact
        // materialization below makes the final call — popped-but-unfinished
        // entries are re-pushed intact (deferred via scratch so the loop
        // cannot re-pop them). Finished members get their exact remaining
        // work stamped back into `KSlot::rem`, which the compact pass below
        // then collects with the same `<= EPS` test as before.
        //
        // A rated lone kernel has no heap entry: the same test runs on the
        // key its entry would carry.
        if let Some(s) = &self.solo {
            if s.done_at.is_some() {
                let k = &mut self.kslots[0];
                let c = &self.classes[k.class as usize];
                let thresh = c.s + EPS + ((c.s + EPS) * 1e-12 + 1e-6);
                if k.sjoin + k.rem <= thresh {
                    self.materializations += 1;
                    let rem = k.rem - (c.s - k.sjoin);
                    if rem <= EPS {
                        k.rem = rem;
                        k.sjoin = c.s;
                    }
                }
            }
        } else {
            let Self {
                ops,
                kslots,
                pos_of,
                classes,
                scratch_entries,
                materializations,
                ..
            } = self;
            for c in classes.iter_mut() {
                if c.members == 0 {
                    continue;
                }
                let thresh = c.s + EPS + ((c.s + EPS) * 1e-12 + 1e-6);
                debug_assert!(scratch_entries.is_empty());
                while let Some(&entry) = c.heap.peek() {
                    if f64::from_bits(entry.key_bits) > thresh {
                        break;
                    }
                    c.heap.pop();
                    let live = ops[entry.id as usize]
                        .as_ref()
                        .is_some_and(|op| op.watch_epoch == entry.epoch);
                    if !live {
                        continue;
                    }
                    let k = &mut kslots[pos_of[entry.id as usize] as usize];
                    let rem = k.rem - (c.s - k.sjoin);
                    *materializations += 1;
                    if rem <= EPS {
                        k.rem = rem;
                        k.sjoin = c.s;
                    } else {
                        scratch_entries.push(entry);
                    }
                }
                for e in scratch_entries.drain(..) {
                    c.heap.push(e);
                }
            }
        }

        // One in-place pass per list: drop finished ids while collecting
        // them (in running order, which is dispatch order) into scratch.
        // Positions are collected too so the incremental evaluator compacts
        // its mirror of `running_kernels` identically. Survivors' positions
        // shift left, so `pos_of` is rewritten for them; finished members
        // leave their class here (their heap entries were popped by the
        // stamp pass, and the retired slab slot kills any stragglers).
        let mut finished = std::mem::take(&mut self.scratch_ids);
        let mut positions = std::mem::take(&mut self.scratch_pos);
        finished.clear();
        positions.clear();
        {
            let Self {
                running_kernels,
                kslots,
                pos_of,
                classes,
                free_classes,
                parked_class,
                live_class_count,
                ..
            } = self;
            let n = running_kernels.len();
            let mut w = 0usize;
            for r in 0..n {
                if kslots[r].rem <= EPS {
                    finished.push(running_kernels[r]);
                    positions.push(r as u32);
                    let ci = kslots[r].class;
                    if ci != NO_CLASS {
                        classes[ci as usize].members -= 1;
                        if classes[ci as usize].members == 0 {
                            // Park-or-free (inline `class_emptied`: the
                            // destructured borrows preclude a method call).
                            if classes[ci as usize].rate.to_bits() == 1.0f64.to_bits() {
                                if let Some(old) = parked_class.replace(ci) {
                                    if old != ci && classes[old as usize].members == 0 {
                                        let oc = &mut classes[old as usize];
                                        oc.alive = false;
                                        oc.heap.clear();
                                        free_classes.push(old);
                                        *live_class_count -= 1;
                                    }
                                }
                            } else {
                                let c = &mut classes[ci as usize];
                                c.alive = false;
                                c.heap.clear();
                                free_classes.push(ci);
                                *live_class_count -= 1;
                            }
                        }
                    }
                } else {
                    if w != r {
                        running_kernels[w] = running_kernels[r];
                        kslots[w] = kslots[r];
                        pos_of[running_kernels[w] as usize] = w as u32;
                    }
                    w += 1;
                }
            }
            running_kernels.truncate(w);
            kslots.truncate(w);
        }
        if !positions.is_empty() {
            if self.solo.take().is_some() {
                // The lone kernel finished: the device is idle, and the
                // evaluator never held it.
                self.totals = UtilTotals::default();
            } else {
                self.inc.remove_sorted(&positions);
            }
        }
        self.scratch_pos = positions;
        for &kid in &finished {
            self.completed_streams.push(self.op(kid).stream.0);
            self.finish_op(kid, at, None);
        }

        finished.clear();
        {
            let Self {
                ops,
                running_copies,
                ..
            } = self;
            running_copies.retain(|&cid| {
                if ops[cid as usize].as_ref().expect("running copy").remaining <= EPS {
                    finished.push(cid);
                    false
                } else {
                    true
                }
            });
        }
        if !finished.is_empty() {
            self.copies_dirty = true;
        }
        for &cid in &finished {
            let blocking = matches!(
                self.op(cid).kind,
                OpPayload::MemcpyH2D { blocking: true, .. }
                    | OpPayload::MemcpyD2H { blocking: true, .. }
            );
            if blocking {
                self.blocking_copies -= 1;
                if self.blocking_copies == 0 {
                    // The device-wide kernel-dispatch gate just opened:
                    // streams beyond the completed set may now dispatch.
                    self.gate_released = true;
                }
            }
            self.completed_streams.push(self.op(cid).stream.0);
            self.finish_op(cid, at, None);
        }
        self.scratch_ids = finished;

        // Sticky fault: once the pass has delivered every same-instant
        // completion, the device dies and everything else aborts.
        if self.device_fault_pending {
            self.device_fault_pending = false;
            self.device_faulted = true;
            self.abort_all(at);
        }
    }

    /// Kills everything still on the device: running kernels and copies,
    /// in-flight sync ops, and queued ops all finish with an `Aborted`
    /// status at `at`, in a deterministic order (running kernels in dispatch
    /// order, then running copies, then per-stream leftovers in
    /// stream-creation order).
    fn abort_all(&mut self, at: SimTime) {
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.append(&mut self.running_kernels);
        self.kslots.clear();
        self.solo = None;
        self.classes.clear();
        self.free_classes.clear();
        self.parked_class = None;
        self.touched_classes.clear();
        self.live_class_count = 0;
        self.completed_streams.clear();
        // Conservative: the wholesale reset may have opened any gate, so
        // the next completion-driven dispatch takes the full sweep.
        self.gate_released = true;
        ids.append(&mut self.running_copies);
        for st in &mut self.streams {
            if let Some(id) = st.inflight.take() {
                // Running ops are already collected; this catches sync ops
                // that hold their stream slot while waiting for the drain.
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            ids.extend(st.queue.drain(..));
        }
        for &id in &ids {
            self.finish_op_with(id, at, None, CompletionStatus::Aborted);
        }
        self.blocking_copies = 0;
        self.sync_requested = false;
        self.rates_dirty = true;
        self.copies_dirty = true;
        // The evaluator mirrors `running_kernels`, which is now empty.
        // Stale watch entries (heap + contended) die lazily on epoch/slab
        // checks.
        self.inc.clear();
        ids.clear();
        self.scratch_ids = ids;
    }

    /// Marks `op` done with a status derived from its injected fault (if
    /// any), records the completion, frees its stream slot, and retires the
    /// slab slot (recycled after the next completion drain).
    fn finish_op(&mut self, op_id: u64, at: SimTime, alloc: Option<AllocId>) {
        let fault = self.op(op_id).fault;
        let status = match fault {
            Some(FaultKind::KernelFault | FaultKind::CopyFail | FaultKind::MallocFail) => {
                CompletionStatus::Faulted
            }
            // A stall only stretches execution; the op itself succeeds.
            Some(FaultKind::Stall) | None => CompletionStatus::Ok,
        };
        if matches!(fault, Some(FaultKind::KernelFault)) {
            // Sticky CUDA semantics: the abort applies after the current
            // completion pass (see `complete_finished`).
            self.device_fault_pending = true;
        }
        self.finish_op_with(op_id, at, alloc, status);
    }

    /// [`GpuEngine::finish_op`] with an explicit status (abort path).
    fn finish_op_with(
        &mut self,
        op_id: u64,
        at: SimTime,
        alloc: Option<AllocId>,
        status: CompletionStatus,
    ) {
        let Self {
            ops,
            streams,
            completions,
            trace,
            event_log,
            retired_ops,
            rates_dirty,
            descs,
            ops_completed,
            ..
        } = self;
        *ops_completed += 1;
        let slot = &mut ops[op_id as usize];
        let op = slot.as_ref().expect("finishing op exists");
        let kind = op.kind;
        let kind_label = kind.label();
        let stream = op.stream;
        let dispatched_at = (op.dispatched_at != UNDISPATCHED).then_some(op.dispatched_at);
        let interfered = op.interfered;
        if let Some(trace) = trace {
            let name = match kind {
                OpPayload::Kernel(idx) => Arc::clone(&descs.desc(idx).name),
                other => Arc::from(other.label()),
            };
            trace.spans.push(Span {
                name,
                stream,
                submitted: op.submitted_at,
                dispatched: dispatched_at.unwrap_or(op.submitted_at),
                completed: at,
                kind: kind_label,
            });
        }
        if let OpPayload::Kernel(idx) = kind {
            descs.release(idx);
        }
        // Retire in place: the payload is plain data, so assigning `None`
        // is a tag store — no drop glue, no whole-struct move.
        *slot = None;
        if let Some(st) = streams.get_mut(stream.0 as usize) {
            if st.inflight == Some(op_id) {
                st.inflight = None;
            }
        }
        completions.push(Completion {
            op: OpId(op_id),
            stream,
            at,
            alloc,
            kind: kind_label,
            dispatched_at,
            interfered,
            status,
        });
        if let Some(log) = event_log {
            log.push(EngineEvent {
                op: OpId(op_id),
                stream,
                at,
                kind: match status {
                    CompletionStatus::Ok => EngineEventKind::Completed,
                    CompletionStatus::Faulted => EngineEventKind::Faulted,
                    CompletionStatus::Aborted => EngineEventKind::Aborted,
                },
            });
        }
        retired_ops.push(op_id);
        *rates_dirty = true;
    }

    /// Examines one stream's head-of-queue and dispatches it if the current
    /// gates permit. Shared by the full fixpoint loop
    /// ([`GpuEngine::try_dispatch`]) and the single-stream submit fast path
    /// ([`GpuEngine::try_dispatch_from`]). Returns what was dispatched (or
    /// [`HeadOutcome::None`]) so callers know whether to keep going.
    fn dispatch_head(&mut self, sid: usize) -> HeadOutcome {
        /// Head-of-queue classification copied out of the op (the payload is
        /// `Copy`; a kernel carries only its interned descriptor index).
        enum Head {
            Kernel { desc: u32 },
            Copy { blocking: bool },
            Sync,
            Event { event: u64 },
        }

        let st = &mut self.streams[sid];
        if st.inflight.is_some() {
            return HeadOutcome::None;
        }
        let Some(&head) = st.queue.front() else {
            return HeadOutcome::None;
        };
        let head_kind = match self.op(head).kind {
            OpPayload::Kernel(desc) => Head::Kernel { desc },
            OpPayload::MemcpyH2D { blocking, .. } | OpPayload::MemcpyD2H { blocking, .. } => {
                Head::Copy { blocking }
            }
            OpPayload::Malloc { .. } | OpPayload::Free { .. } => Head::Sync,
            OpPayload::EventRecord { event } => Head::Event { event: event.0 },
        };
        match head_kind {
            Head::Kernel { desc } => {
                if self.blocking_copies > 0 || self.sync_requested {
                    return HeadOutcome::None;
                }
                let st = &mut self.streams[sid];
                st.queue.pop_front();
                st.inflight = Some(head);
                let seq = self.next_dispatch_seq;
                self.next_dispatch_seq += 1;
                let now = self.now;
                let urgency = self.streams[sid].priority.urgency();
                let load = {
                    let slot = &self.descs.slots[desc as usize];
                    let k = slot.desc.as_ref().expect("queued kernel's slot is occupied");
                    KernelLoad {
                        sm_needed: slot.sm_needed,
                        sm_granted: 0,
                        compute_demand: k.compute_util,
                        mem_demand: k.mem_util,
                        urgency,
                        seq,
                    }
                };
                let op = self.ops[head as usize].as_mut().expect("op exists");
                op.dispatched_at = now;
                let remaining = op.remaining;
                // Onto an idle device the kernel runs alone, fully granted
                // (`sm_needed` fits any device with SMs) at rate 1.0.
                let alone = self.running_kernels.is_empty() && load.sm_needed <= self.spec.num_sms;
                self.running_kernels.push(head);
                // Classless until the first refresh rates it (the evaluator
                // seeds new kernels at rate 0.0, so the first real rate
                // always lands in the rate-change feed).
                self.kslots.push(KSlot {
                    rem: remaining,
                    sjoin: 0.0,
                    class: NO_CLASS,
                });
                let pos = (self.running_kernels.len() - 1) as u32;
                if self.pos_of.len() <= head as usize {
                    self.pos_of.resize(head as usize + 1, 0);
                }
                self.pos_of[head as usize] = pos;
                if alone {
                    // Kept out of the evaluator until a second kernel
                    // dispatches (`promote_solo`); rated at the next refresh.
                    self.solo = Some(Solo {
                        load,
                        rate: KernelRate {
                            sm_granted: 0,
                            rate: 0.0,
                            compute_used: 0.0,
                            mem_used: 0.0,
                        },
                        done_at: None,
                    });
                } else {
                    if let Some(s) = self.solo.take() {
                        self.promote_solo(s);
                    }
                    // Grants happen at the next refresh, in global (urgency,
                    // seq) order over all starved kernels — identical to a
                    // full evaluation of the post-dispatch set.
                    self.inc.add(load);
                }
                self.rates_dirty = true;
                HeadOutcome::Kernel
            }
            Head::Copy { blocking } => {
                if self.sync_requested {
                    return HeadOutcome::None;
                }
                let st = &mut self.streams[sid];
                st.queue.pop_front();
                st.inflight = Some(head);
                let now = self.now;
                let op = self.ops[head as usize].as_mut().expect("op exists");
                op.dispatched_at = now;
                self.running_copies.push(head);
                if blocking {
                    self.blocking_copies += 1;
                }
                self.copies_dirty = true;
                HeadOutcome::Copy
            }
            Head::Sync => {
                // Take the slot and request drain; applied when idle.
                let st = &mut self.streams[sid];
                st.queue.pop_front();
                st.inflight = Some(head);
                self.sync_requested = true;
                HeadOutcome::Sync
            }
            Head::Event { event } => {
                // Zero-duration marker: completes instantly once all
                // prior ops on the stream are done.
                let st = &mut self.streams[sid];
                st.queue.pop_front();
                let idx = event as usize;
                if idx >= self.events.len() {
                    self.events.resize(idx + 1, false);
                }
                self.events[idx] = true;
                let at = self.now;
                self.finish_op(head, at, None);
                HeadOutcome::Event
            }
        }
    }

    /// Dispatch after a completion round, O(completed streams) in the
    /// common case instead of O(all streams).
    ///
    /// Fast path: when no cross-stream gate changed, only streams that had
    /// an op finish can have gained a dispatchable head (every prior
    /// mutation ended in a dispatch fixpoint), so only those are visited —
    /// in the full sweep's (priority desc, creation) order via
    /// `stream_rank`, so dispatch decisions and sequence numbers are
    /// identical to the full sweep's. Anything cross-stream — a blocking
    /// copy draining the dispatch gate, a pending device-wide sync, or a
    /// candidate head that turns out to be an event/sync op (which can
    /// unblock other streams) — falls back to the full fixpoint sweep.
    fn dispatch_after_completions(&mut self) {
        if self.device_faulted {
            self.completed_streams.clear();
            self.gate_released = false;
            return;
        }
        if self.gate_released || self.sync_requested {
            self.completed_streams.clear();
            self.gate_released = false;
            self.try_dispatch();
            return;
        }
        let mut cands = std::mem::take(&mut self.completed_streams);
        let ranks = &self.stream_rank;
        cands.sort_unstable_by_key(|&sid| ranks[sid as usize]);
        cands.dedup();
        // Mirror of the full sweep's first pass restricted to candidates:
        // an event/sync head can enable further dispatches, so it marks a
        // fallback repass but does NOT cut the pass short — remaining
        // candidates must dispatch first to keep sequence numbers (and thus
        // sticky-grant order) identical to the full sweep's.
        let mut fallback = false;
        for &sid in &cands {
            match self.dispatch_head(sid as usize) {
                HeadOutcome::None | HeadOutcome::Kernel | HeadOutcome::Copy => {}
                HeadOutcome::Event | HeadOutcome::Sync => fallback = true,
            }
        }
        cands.clear();
        self.completed_streams = cands;
        if fallback {
            self.try_dispatch();
        }
    }

    /// Pulls work from stream queues onto the device wherever permitted.
    fn try_dispatch(&mut self) {
        // A faulted device dispatches nothing until it is reset.
        if self.device_faulted {
            return;
        }

        loop {
            // Only dispatches that can *enable* further dispatches force
            // another pass: an event completes instantly (its stream's next
            // head becomes a candidate) and a sync may drain and release
            // every waiting sync op. A kernel or copy occupies its own
            // stream slot and relaxes no gate, so a pass that dispatched
            // only those needs no re-verification — the fixpoint is proven,
            // not re-scanned.
            let mut repass = false;

            // Device-wide sync: when requested and the device is drained,
            // apply all head-of-stream sync ops, then resume.
            if self.sync_requested {
                if self.busy() {
                    return;
                }
                self.apply_sync_ops();
                self.sync_requested = false;
            }

            // Visit streams in the cached (priority desc, creation order)
            // sequence so simultaneous head-of-line candidates dispatch by
            // priority. Index loop: the order vector is only mutated by
            // `create_stream`, never inside dispatch.
            for oi in 0..self.dispatch_order.len() {
                let sid = self.dispatch_order[oi] as usize;
                match self.dispatch_head(sid) {
                    HeadOutcome::None | HeadOutcome::Kernel | HeadOutcome::Copy => {}
                    HeadOutcome::Event | HeadOutcome::Sync => repass = true,
                }
            }

            if !repass {
                return;
            }
        }
    }

    /// Submit fast path: only stream `sid` gained a head, so only it can
    /// have become dispatchable.
    ///
    /// Invariant this relies on: every engine mutation ends in a dispatch
    /// fixpoint, so before this submit no stream had a dispatchable head,
    /// and dispatching from `sid` never unblocks another stream (a kernel
    /// or copy occupies `sid`'s slot; an event record completes with no
    /// cross-stream effect; a sync drain on an idle device completes only
    /// `sid`'s own sync op because `sync_requested == false` here implies
    /// no other stream has one in flight). A pending device-wide sync
    /// implies a busy device — the full loop dispatches nothing at all in
    /// that state, so returning immediately matches it.
    fn try_dispatch_from(&mut self, sid: usize) {
        if self.device_faulted || self.sync_requested {
            return;
        }
        loop {
            match self.dispatch_head(sid) {
                HeadOutcome::None | HeadOutcome::Kernel | HeadOutcome::Copy => return,
                // The next head on this stream may now be dispatchable.
                HeadOutcome::Event => {}
                HeadOutcome::Sync => {
                    if self.busy() {
                        return;
                    }
                    self.apply_sync_ops();
                    self.sync_requested = false;
                }
            }
        }
    }

    /// Applies all in-flight sync ops (malloc/free) on a drained device.
    ///
    /// Streams are visited in id (creation) order, so simultaneous sync ops
    /// apply deterministically.
    fn apply_sync_ops(&mut self) {
        let mut pending = std::mem::take(&mut self.scratch_ids);
        pending.clear();
        for st in &self.streams {
            if let Some(id) = st.inflight {
                if matches!(
                    self.op(id).kind,
                    OpPayload::Malloc { .. } | OpPayload::Free { .. }
                ) {
                    pending.push(id);
                }
            }
        }
        let at = self.now;
        for &op_id in &pending {
            enum Sync {
                Malloc(u64),
                Free(AllocId),
            }
            let sync = match self.op(op_id).kind {
                OpPayload::Malloc { bytes } => Sync::Malloc(bytes),
                OpPayload::Free { alloc } => Sync::Free(alloc),
                _ => unreachable!("apply_sync_ops only sees malloc/free"),
            };
            let alloc = match sync {
                // OOM inside the pipeline surfaces as a completion with no
                // allocation; the client layer maps this to an error. An
                // injected `MallocFail` skips the ledger entirely and is
                // reported as a `Faulted` completion by `finish_op`.
                Sync::Malloc(bytes) => {
                    if self.op(op_id).fault == Some(FaultKind::MallocFail) {
                        None
                    } else {
                        self.memory.alloc(bytes).ok()
                    }
                }
                Sync::Free(alloc) => {
                    let _ = self.memory.free(alloc);
                    None
                }
            };
            self.finish_op(op_id, at, alloc);
        }
        self.scratch_ids = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;

    fn engine() -> GpuEngine {
        GpuEngine::new(GpuSpec::v100_16gb(), true)
    }

    fn kernel(id: u32, us: u64, sm: u32, c: f64, m: f64) -> Arc<KernelDesc> {
        // threads 1024 -> 2 blocks/SM, so grid = 2*sm blocks => sm_needed = sm.
        KernelBuilder::new(id, format!("k{id}"))
            .grid_blocks(2 * sm)
            .threads_per_block(1024)
            .regs_per_thread(16)
            .solo_duration(SimTime::from_micros(us))
            .utilization(c, m)
            .build()
    }

    #[test]
    fn steady_state_drain_allocates_nothing() {
        let mut e = engine();
        let streams: Vec<_> = (0..4)
            .map(|_| e.create_stream(StreamPriority::DEFAULT))
            .collect();
        let mut buf = Vec::new();
        let mut t = SimTime::ZERO;
        let mut after_warmup = 0;
        for wave in 0..40 {
            for (i, &s) in streams.iter().enumerate() {
                e.submit(s, OpKind::Kernel(kernel(i as u32, 50, 10, 0.2, 0.2)))
                    .unwrap();
            }
            t += SimTime::from_millis(1);
            e.advance_to(t);
            e.drain_completions_into(&mut buf);
            assert_eq!(buf.len(), streams.len(), "wave {wave}");
            if wave == 1 {
                // Both ping-ponged buffers have now seen a full batch.
                after_warmup = e.drain_realloc_count();
            }
        }
        assert!(
            e.drain_realloc_count() <= 2,
            "warmup took {} reallocs for a constant batch size",
            e.drain_realloc_count()
        );
        assert_eq!(
            e.drain_realloc_count(),
            after_warmup,
            "steady-state drains still reallocating"
        );
    }

    #[test]
    fn solo_kernel_completes_on_time() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let op = e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        assert!(e.busy());
        let t = e.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
        e.advance_to(t);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].op, op);
        assert_eq!(done[0].at, SimTime::from_micros(100));
        assert!(!e.busy());
    }

    #[test]
    fn solo_kernel_completes_uninterfered() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_micros(100));
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(!done[0].interfered, "solo kernel must be a clean sample");
        assert_eq!(done[0].at - done[0].dispatched_at.unwrap(), SimTime::from_micros(100));
    }

    #[test]
    fn lone_kernel_chain_never_evaluates_interference() {
        // Counted-work gate: kernels that each run alone cost no
        // interference evaluation (1,001 before lone kernels bypassed the
        // evaluator: one per dispatch plus the final empty refresh).
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let shapes = [kernel(0, 3, 20, 0.4, 0.3), kernel(1, 5, 80, 0.9, 0.1)];
        for i in 0..1_000 {
            e.submit_kernel(s, &shapes[i % 2]).unwrap();
        }
        e.advance_to(SimTime::from_millis(5));
        let done = e.drain_completions();
        assert_eq!(done.len(), 1_000);
        assert_eq!(done[999].at, SimTime::from_micros(500 * 3 + 500 * 5));
        assert!(done.iter().all(|c| !c.interfered));
        assert_eq!(e.eval_count(), 0);
        // A second kernel beside a lone one brings the evaluator back.
        let hp = e.create_stream(StreamPriority::HIGH);
        e.submit_kernel(s, &shapes[1]).unwrap();
        e.submit_kernel(hp, &shapes[0]).unwrap();
        assert_eq!(e.interference_loads().len(), 2);
        e.advance_to(SimTime::from_millis(6));
        assert_eq!(e.drain_completions().len(), 2);
        assert!(e.eval_count() > 0);
    }

    #[test]
    fn contended_kernels_complete_interfered() {
        // Two memory-bound kernels slow each other: both samples are dirty.
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 30, 0.14, 0.80))).unwrap();
        e.submit(s2, OpKind::Kernel(kernel(1, 100, 30, 0.14, 0.80))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!(c.interfered, "contended kernel must be flagged");
        }
    }

    #[test]
    fn concurrent_copies_complete_interfered() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        for s in [s1, s2] {
            e.submit(s, OpKind::MemcpyH2D { bytes: 1 << 20, blocking: false }).unwrap();
        }
        e.advance_to(SimTime::from_secs(1));
        assert!(e.drain_completions().iter().all(|c| c.interfered));
        // A lone copy afterwards is clean again.
        e.submit(s1, OpKind::MemcpyH2D { bytes: 1 << 20, blocking: false }).unwrap();
        e.advance_to(SimTime::from_secs(2));
        assert!(e.drain_completions().iter().all(|c| !c.interfered));
    }

    #[test]
    fn stream_executes_in_order() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let a = e.submit(s, OpKind::Kernel(kernel(0, 50, 40, 0.5, 0.3))).unwrap();
        let b = e.submit(s, OpKind::Kernel(kernel(1, 50, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_micros(200));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].op, a);
        assert_eq!(done[0].at, SimTime::from_micros(50));
        assert_eq!(done[1].op, b);
        assert_eq!(done[1].at, SimTime::from_micros(100));
    }

    #[test]
    fn big_kernels_on_two_streams_roughly_serialize() {
        // Both want all 80 SMs and are compute-bound: collocation buys
        // nothing, makespan is about the sequential sum (Table 2 row 1).
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 80, 0.9, 0.2))).unwrap();
        e.submit(s2, OpKind::Kernel(kernel(1, 100, 80, 0.9, 0.2))).unwrap();
        e.advance_to(SimTime::from_micros(500));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        // First (SM holder) finishes before the interleaver.
        assert_eq!(done[0].stream, s1);
        let makespan = done[1].at.as_micros_f64();
        assert!(
            (195.0..=215.0).contains(&makespan),
            "makespan {makespan} us, expected near-sequential ~200 us"
        );
    }

    #[test]
    fn opposite_profiles_overlap() {
        // Compute-bound + memory-bound small kernels: both finish near solo.
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 40, 0.89, 0.20))).unwrap();
        e.submit(s2, OpKind::Kernel(kernel(1, 100, 30, 0.14, 0.80))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        // Total compute demand 1.03 -> tiny slowdown only.
        for c in &done {
            assert!(c.at <= SimTime::from_micros(110), "finished at {}", c.at);
        }
    }

    #[test]
    fn memory_contention_slows_both() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 30, 0.14, 0.80))).unwrap();
        e.submit(s2, OpKind::Kernel(kernel(1, 100, 30, 0.14, 0.80))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        // Each runs at 1/(1.6 + 0.4*0.6) = 0.5435 -> ~184 us.
        for c in &done {
            let us = c.at.as_micros_f64();
            assert!((us - 184.0).abs() < 1.0, "finished at {us}");
        }
    }

    #[test]
    fn priority_stream_gets_freed_sms_first() {
        let mut e = engine();
        let hp = e.create_stream(StreamPriority::HIGH);
        let be1 = e.create_stream(StreamPriority::DEFAULT);
        let be2 = e.create_stream(StreamPriority::DEFAULT);
        // BE kernel holds the whole device.
        e.submit(be1, OpKind::Kernel(kernel(0, 100, 80, 0.9, 0.1))).unwrap();
        e.advance_to(SimTime::from_micros(10));
        // Another BE and an HP kernel arrive while the device is full.
        e.submit(be2, OpKind::Kernel(kernel(1, 100, 80, 0.9, 0.1))).unwrap();
        e.submit(hp, OpKind::Kernel(kernel(2, 50, 80, 0.9, 0.1))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 3);
        // HP (op 2) runs before the second BE kernel despite arriving later.
        assert_eq!(done[0].stream, be1);
        assert_eq!(done[1].stream, hp);
        assert_eq!(done[2].stream, be2);
    }

    #[test]
    fn event_record_signals_after_prior_ops() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let ev = e.create_event();
        e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.submit(s, OpKind::EventRecord { event: ev }).unwrap();
        assert!(!e.event_done(ev).unwrap());
        e.advance_to(SimTime::from_micros(50));
        assert!(!e.event_done(ev).unwrap());
        e.advance_to(SimTime::from_micros(100));
        assert!(e.event_done(ev).unwrap());
        e.event_reset(ev).unwrap();
        assert!(!e.event_done(ev).unwrap());
    }

    #[test]
    fn memcpy_duration_matches_bandwidth() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        // 12 MB at 12 GB/s = 1 ms.
        e.submit(
            s,
            OpKind::MemcpyH2D {
                bytes: 12_000_000,
                blocking: false,
            },
        )
        .unwrap();
        let t = e.next_event_time().unwrap();
        assert!((t.as_millis_f64() - 1.0).abs() < 0.01, "copy ended at {t}");
    }

    #[test]
    fn concurrent_copies_share_pcie() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        for s in [s1, s2] {
            e.submit(
                s,
                OpKind::MemcpyH2D {
                    bytes: 12_000_000,
                    blocking: false,
                },
            )
            .unwrap();
        }
        e.advance_to(SimTime::from_secs(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at.as_millis_f64() - 2.0).abs() < 0.01);
        }
    }

    #[test]
    fn blocking_copy_stalls_kernel_dispatch() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        // 1 ms blocking copy.
        e.submit(
            s1,
            OpKind::MemcpyH2D {
                bytes: 12_000_000,
                blocking: true,
            },
        )
        .unwrap();
        e.submit(s2, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_secs(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        // The kernel only starts after the copy finishes at 1 ms.
        assert_eq!(done[0].kind, "memcpy_h2d");
        assert_eq!(done[1].kind, "kernel");
        assert!(done[1].at >= SimTime::from_millis(1) + SimTime::from_micros(100) - SimTime::from_nanos(10));
    }

    #[test]
    fn async_copy_overlaps_kernels() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(
            s1,
            OpKind::MemcpyH2D {
                bytes: 12_000_000,
                blocking: false,
            },
        )
        .unwrap();
        e.submit(s2, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_secs(1));
        let done = e.drain_completions();
        assert_eq!(done[0].kind, "kernel");
        assert_eq!(done[0].at, SimTime::from_micros(100));
    }

    #[test]
    fn malloc_synchronizes_device() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.submit(s2, OpKind::Malloc { bytes: 1 << 20 }).unwrap();
        // A later kernel on s1 must wait for the malloc to apply.
        e.submit(s1, OpKind::Kernel(kernel(1, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_secs(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].kind, "kernel");
        assert_eq!(done[1].kind, "malloc");
        assert!(done[1].alloc.is_some());
        assert_eq!(done[1].at, SimTime::from_micros(100));
        assert_eq!(done[2].at, SimTime::from_micros(200));
        assert_eq!(e.memory().used(), 1 << 20);
    }

    #[test]
    fn free_releases_memory() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Malloc { bytes: 1000 }).unwrap();
        e.advance_to(SimTime::from_micros(1));
        let alloc = e.drain_completions()[0].alloc.unwrap();
        e.submit(s, OpKind::Free { alloc }).unwrap();
        e.advance_to(SimTime::from_micros(2));
        assert_eq!(e.memory().used(), 0);
    }

    #[test]
    fn utilization_integrates_exactly() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.8, 0.2))).unwrap();
        e.advance_to(SimTime::from_micros(200));
        let u = e.util_summary();
        // Busy 100 of 200 us at 0.8 compute -> mean 0.4.
        assert!((u.compute - 0.4).abs() < 1e-9, "compute {}", u.compute);
        assert!((u.mem_bw - 0.1).abs() < 1e-9);
        // 40 of 80 SMs for half the time -> 0.25.
        assert!((u.sm_busy - 0.25).abs() < 1e-9);
    }

    #[test]
    fn unknown_stream_is_an_error() {
        let mut e = engine();
        let err = e.submit(StreamId(99), OpKind::Malloc { bytes: 1 });
        assert!(matches!(err, Err(GpuError::UnknownStream(99))));
    }

    #[test]
    fn same_profile_starved_kernel_waits_for_holder() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 80, 0.9, 0.1))).unwrap();
        e.submit(s2, OpKind::Kernel(kernel(1, 40, 80, 0.9, 0.1))).unwrap();
        // The holder is barely slowed; the same-profile waiter crawls at
        // alpha_same until the holder releases the SMs.
        e.advance_to(SimTime::from_micros(60));
        assert!(e.drain_completions().is_empty());
        e.advance_to(SimTime::from_micros(300));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        // Holder finishes near its solo 100 us; the waiter then runs its
        // nearly untouched 40 us: near-sequential makespan (~138 us).
        assert_eq!(done[0].stream, s1);
        assert!(done[0].at >= SimTime::from_micros(99));
        assert!(done[0].at <= SimTime::from_micros(105));
        assert_eq!(done[1].stream, s2);
        assert!(done[1].at >= SimTime::from_micros(132));
        assert!(done[1].at <= SimTime::from_micros(142));
        // Both were dispatched immediately at submit time.
        assert_eq!(done[0].dispatched_at, Some(SimTime::ZERO));
        assert_eq!(done[1].dispatched_at, Some(SimTime::ZERO));
    }

    #[test]
    fn fully_idle_reflects_queues() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        assert!(e.fully_idle());
        e.submit(s, OpKind::Kernel(kernel(0, 10, 4, 0.2, 0.2))).unwrap();
        assert!(!e.fully_idle());
        e.advance_to(SimTime::from_micros(10));
        e.drain_completions();
        assert!(e.fully_idle());
    }

    #[test]
    fn op_ids_recycle_only_after_drain() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let a = e.submit(s, OpKind::Kernel(kernel(0, 10, 4, 0.2, 0.2))).unwrap();
        e.advance_to(SimTime::from_micros(10));
        // `a` is finished but undrained: its id must NOT be reused yet.
        let b = e.submit(s, OpKind::Kernel(kernel(1, 10, 4, 0.2, 0.2))).unwrap();
        assert_ne!(a, b, "undrained op id was recycled");
        e.advance_to(SimTime::from_micros(20));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        // After the drain both slots are free; the next submit reuses one.
        let c = e.submit(s, OpKind::Kernel(kernel(2, 10, 4, 0.2, 0.2))).unwrap();
        assert!(c == a || c == b, "drained slots should be recycled");
    }

    #[test]
    fn event_log_records_submits_and_completes_in_order() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        assert!(e.drain_events().is_empty(), "log disabled by default");
        e.enable_event_log();
        let a = e.submit(s, OpKind::Kernel(kernel(0, 10, 4, 0.2, 0.2))).unwrap();
        let b = e
            .submit(
                s,
                OpKind::MemcpyH2D {
                    bytes: 100,
                    blocking: true,
                },
            )
            .unwrap();
        e.advance_to(SimTime::from_millis(1));
        let ev = e.drain_events();
        assert_eq!(ev.len(), 4, "2 submits + 2 completes");
        assert_eq!(ev[0].op, a);
        assert!(matches!(
            ev[0].kind,
            EngineEventKind::Submitted {
                is_kernel: true,
                blocking: false,
                ..
            }
        ));
        assert_eq!(ev[1].op, b);
        assert!(matches!(
            ev[1].kind,
            EngineEventKind::Submitted {
                is_kernel: false,
                blocking: true,
                label: "memcpy_h2d",
            }
        ));
        // Completions follow in stream order, stamped with device time.
        assert_eq!(ev[2].op, a);
        assert_eq!(ev[2].kind, EngineEventKind::Completed);
        assert_eq!(ev[2].at, SimTime::from_micros(10));
        assert_eq!(ev[3].op, b);
        assert_eq!(ev[3].kind, EngineEventKind::Completed);
        // Drain is destructive; the log keeps recording afterwards.
        assert!(e.drain_events().is_empty());
        e.submit(s, OpKind::Kernel(kernel(1, 10, 4, 0.2, 0.2))).unwrap();
        assert_eq!(e.drain_events().len(), 1);
    }

    #[test]
    fn high_priority_stream_dispatches_first_regardless_of_creation_order() {
        // The cached dispatch order must re-sort when a high-priority stream
        // is created *after* default ones.
        let mut e = engine();
        let be = e.create_stream(StreamPriority::DEFAULT);
        let hp = e.create_stream(StreamPriority::HIGH);
        // Fill the device so both queued kernels contend for dispatch order.
        e.submit(be, OpKind::Kernel(kernel(0, 50, 80, 0.9, 0.1))).unwrap();
        e.advance_to(SimTime::from_micros(1));
        e.submit(be, OpKind::Kernel(kernel(1, 50, 80, 0.9, 0.1))).unwrap();
        e.submit(hp, OpKind::Kernel(kernel(2, 50, 80, 0.9, 0.1))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].stream, be);
        assert_eq!(done[1].stream, hp, "HP kernel must overtake the queued BE one");
        assert_eq!(done[2].stream, be);
    }

    #[test]
    fn empty_fault_plan_is_a_noop() {
        use crate::fault::FaultPlan;
        let mut e = engine();
        e.set_fault_plan(FaultPlan::none());
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_micros(100));
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Ok);
        assert_eq!(done[0].at, SimTime::from_micros(100));
        assert!(!e.device_faulted());
    }

    #[test]
    fn kernel_fault_is_sticky_until_reset() {
        use crate::fault::{FaultKind, FaultPlan, FaultTarget};
        let mut e = engine();
        e.enable_event_log();
        e.set_fault_plan(
            FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::KernelFault),
        );
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        let bad = e.submit(s1, OpKind::Kernel(kernel(0, 50, 40, 0.5, 0.3))).unwrap();
        // A sibling kernel and a queued follow-up both die with the device.
        let sib = e.submit(s2, OpKind::Kernel(kernel(1, 200, 40, 0.5, 0.3))).unwrap();
        let queued = e.submit(s1, OpKind::Kernel(kernel(2, 50, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        assert!(e.device_faulted());
        let done = e.drain_completions();
        assert_eq!(done.len(), 3);
        let by_op = |op: OpId| done.iter().find(|c| c.op == op).unwrap();
        assert_eq!(by_op(bad).status, CompletionStatus::Faulted);
        assert_eq!(by_op(sib).status, CompletionStatus::Aborted);
        assert_eq!(by_op(queued).status, CompletionStatus::Aborted);
        // Aborts land at the fault instant, not the horizon.
        assert_eq!(by_op(sib).at, by_op(bad).at);
        // Sticky: submits now fail...
        let err = e.submit(s1, OpKind::Kernel(kernel(3, 10, 4, 0.2, 0.2)));
        assert!(matches!(err, Err(GpuError::DeviceFault)));
        // ...until the device is reset.
        e.reset_device();
        assert!(!e.device_faulted());
        assert!(e.fully_idle());
        e.submit(s1, OpKind::Kernel(kernel(3, 10, 4, 0.2, 0.2))).unwrap();
        e.advance_to(SimTime::from_millis(2));
        assert_eq!(e.drain_completions().len(), 1);
        // The event log saw the fault, the aborts, and the reset.
        let ev = e.drain_events();
        let kinds: Vec<_> = ev.iter().map(|x| x.kind.clone()).collect();
        assert!(kinds.contains(&EngineEventKind::Faulted));
        assert!(kinds.contains(&EngineEventKind::DeviceReset));
        assert_eq!(
            kinds.iter().filter(|k| **k == EngineEventKind::Aborted).count(),
            2
        );
    }

    #[test]
    fn copy_fail_is_not_sticky() {
        use crate::fault::{FaultKind, FaultPlan, FaultTarget};
        let mut e = engine();
        e.set_fault_plan(
            FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::CopyFail),
        );
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(
            s,
            OpKind::MemcpyH2D {
                bytes: 1000,
                blocking: false,
            },
        )
        .unwrap();
        e.submit(s, OpKind::Kernel(kernel(0, 10, 4, 0.2, 0.2))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].status, CompletionStatus::Faulted);
        assert_eq!(done[1].status, CompletionStatus::Ok, "device survived");
        assert!(!e.device_faulted());
    }

    #[test]
    fn malloc_fault_completes_without_allocation() {
        use crate::fault::{FaultKind, FaultPlan, FaultTarget};
        let mut e = engine();
        e.set_fault_plan(
            FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::MallocFail),
        );
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Malloc { bytes: 1 << 20 }).unwrap();
        e.advance_to(SimTime::from_micros(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Faulted);
        assert!(done[0].alloc.is_none());
        assert_eq!(e.memory().used(), 0, "failed malloc must not charge the ledger");
        assert!(!e.device_faulted());
    }

    #[test]
    fn stall_extends_kernel_but_completes_ok() {
        use crate::fault::{FaultKind, FaultPlan, FaultTarget};
        let mut e = engine();
        e.set_fault_plan(
            FaultPlan::none()
                .with_target(FaultTarget::Ordinal(0), FaultKind::Stall)
                .with_stall(SimTime::from_micros(300)),
        );
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Ok);
        assert_eq!(done[0].at, SimTime::from_micros(400), "100us solo + 300us stall");
    }

    #[test]
    fn reset_device_aborts_a_stalled_device_preemptively() {
        // Watchdog path: nothing faulted, but the supervisor resets anyway.
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s, OpKind::Kernel(kernel(0, 1000, 40, 0.5, 0.3))).unwrap();
        e.advance_to(SimTime::from_micros(10));
        e.reset_device();
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, CompletionStatus::Aborted);
        assert_eq!(done[0].at, SimTime::from_micros(10));
        assert!(e.fully_idle());
        // The device keeps working afterwards.
        e.submit(s, OpKind::Kernel(kernel(1, 10, 4, 0.2, 0.2))).unwrap();
        e.advance_to(SimTime::from_micros(20));
        assert_eq!(e.drain_completions().len(), 1);
    }

    #[test]
    fn fault_during_pending_device_sync_aborts_the_sync_op() {
        use crate::fault::{FaultKind, FaultPlan, FaultTarget};
        let mut e = engine();
        e.set_fault_plan(
            FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::KernelFault),
        );
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        e.submit(s1, OpKind::Kernel(kernel(0, 100, 40, 0.5, 0.3))).unwrap();
        // The malloc takes its stream slot and waits for the drain; the
        // drain ends in a sticky fault, so the malloc must abort, not apply.
        e.submit(s2, OpKind::Malloc { bytes: 1 << 20 }).unwrap();
        e.advance_to(SimTime::from_millis(1));
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].status, CompletionStatus::Faulted);
        assert_eq!(done[1].kind, "malloc");
        assert_eq!(done[1].status, CompletionStatus::Aborted);
        assert!(done[1].alloc.is_none());
        assert_eq!(e.memory().used(), 0);
    }

    #[test]
    fn integer_rounding_matches_libm() {
        const EPS: f64 = f64::EPSILON;
        let xs = [
            0.0,
            -0.0,
            -0.5,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            1.0,
            1.0 + EPS,
            2.0 - EPS,
            2.5,
            4_503_599_627_370_496.5, // 2^52 + 0.5
            4_503_599_627_370_497.0,
            9_007_199_254_740_992.0, // 2^53
            9_223_372_036_854_774_784.0, // largest f64 below 2^63
            9_223_372_036_854_775_808.0, // 2^63
            -9_223_372_036_854_775_808.0,
            18_446_744_073_709_549_568.0, // largest f64 below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        // The copy rounding as it was written with libm `ceil`.
        fn copy_eta_libm(remaining: f64, rate: f64) -> SimTime {
            let ns = (remaining / rate * 1e9).ceil();
            if !ns.is_finite() || ns >= u64::MAX as f64 {
                return SimTime::MAX;
            }
            SimTime::from_nanos((ns as u64).max(1))
        }
        let rates = [1.0, 0.5, 0.375, 1e-9, 1e9, 0.0, -0.0, -1.0, f64::NAN, f64::INFINITY];
        for &x in &xs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil_u64({x:e})");
            assert_eq!(is_integral(x), x == x.trunc(), "is_integral({x:e})");
            for &r in &rates {
                let want = SimTime::from_nanos((x / r).ceil().max(1.0) as u64);
                assert_eq!(kernel_eta(x, r), want, "kernel_eta({x:e}, {r:e})");
                assert_eq!(copy_eta(x, r), copy_eta_libm(x, r), "copy_eta({x:e}, {r:e})");
            }
        }
        // Fractions around every binade and both integer bounds.
        let mut rng = orion_desim::rng::DetRng::new(7);
        for _ in 0..20_000 {
            let x = f64::from_bits(rng.next_u64());
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil_u64({x:e})");
            assert_eq!(is_integral(x), x == x.trunc(), "is_integral({x:e})");
            let y = rng.uniform_f64(-4.0, 64.0).exp2() * rng.next_f64();
            assert_eq!(ceil_u64(y), y.ceil() as u64, "ceil_u64({y:e})");
            assert_eq!(is_integral(y), y == y.trunc(), "is_integral({y:e})");
        }
    }

    /// A fresh descriptor per submit, as a drifted kernel or a serving step
    /// makes them.
    fn fresh(id: u32) -> Arc<KernelDesc> {
        kernel(id, 10, 4, 0.2, 0.2)
    }

    #[test]
    fn fresh_descriptors_keep_the_table_bounded() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let mut t = SimTime::ZERO;
        for i in 0..10_000u32 {
            let k = fresh(i);
            e.submit_kernel(s, &k).unwrap();
            // Every other descriptor outlives its op on the caller's side,
            // so its slot stays indexed until a sweep finds it released.
            if i % 2 == 0 {
                drop(k);
                t += SimTime::from_micros(10);
                e.advance_to(t);
            } else {
                t += SimTime::from_micros(10);
                e.advance_to(t);
                drop(k);
            }
            e.drain_completions();
        }
        assert_eq!(e.kernel_submit_count(), 10_000);
        assert_eq!(e.desc_intern_miss_count(), 10_000);
        // At most one descriptor is referenced at a time, so the documented
        // bound is `max(DESC_SWEEP_MIN, 2)`.
        assert!(
            e.descs.slots.len() <= DESC_SWEEP_MIN,
            "{} descriptor slots",
            e.descs.slots.len()
        );
        assert_eq!(e.descs.index.len(), e.descs.slots.len() - e.descs.free.len());
    }

    #[test]
    fn shared_descriptor_is_validated_once() {
        let mut e = engine();
        let s1 = e.create_stream(StreamPriority::DEFAULT);
        let s2 = e.create_stream(StreamPriority::DEFAULT);
        let a = kernel(0, 10, 4, 0.2, 0.2);
        let b = kernel(1, 10, 4, 0.2, 0.2);
        for round in 0..50u64 {
            e.submit_kernel(s1, &a).unwrap();
            e.submit_kernel(s2, &b).unwrap();
            e.submit(s1, OpKind::Kernel(Arc::clone(&a))).unwrap();
            e.advance_to(SimTime::from_micros(100 * (round + 1)));
            assert_eq!(e.drain_completions().len(), 3);
        }
        assert_eq!(e.kernel_submit_count(), 150);
        assert_eq!(e.desc_intern_miss_count(), 2, "one validation per descriptor");
        assert!(e.descs.slots.iter().all(|s| s.live == 0));
    }

    #[test]
    fn invalid_descriptor_is_rejected_on_every_submit() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let mut bad = (*kernel(0, 10, 4, 0.2, 0.2)).clone();
        bad.grid_blocks = 0;
        let bad = Arc::new(bad);
        for _ in 0..3 {
            let err = e.submit_kernel(s, &bad);
            assert!(matches!(err, Err(GpuError::InvalidKernel(_))), "{err:?}");
        }
        assert_eq!(e.desc_intern_miss_count(), 3);
        assert!(e.descs.index.is_empty(), "an invalid descriptor is never indexed");
        assert!(e.fully_idle());
    }

    #[test]
    fn unknown_stream_releases_the_descriptor_slot() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);
        let k = kernel(0, 10, 4, 0.2, 0.2);
        for _ in 0..3 {
            let err = e.submit_kernel(StreamId(99), &k);
            assert!(matches!(err, Err(GpuError::UnknownStream(99))), "{err:?}");
        }
        assert!(e.descs.slots.iter().all(|s| s.live == 0));
        // The caller still holds `k`, so its slot stays indexed: the next
        // submit hits it.
        e.submit_kernel(s, &k).unwrap();
        assert_eq!(e.desc_intern_miss_count(), 1);
        e.advance_to(SimTime::from_micros(10));
        assert_eq!(e.drain_completions().len(), 1);
        assert!(e.descs.slots.iter().all(|s| s.live == 0));
        // A by-value submit's descriptor is dropped after the release, so
        // its idle slot is left for the next sweep to free.
        let err = e.submit(StreamId(99), OpKind::Kernel(kernel(1, 10, 4, 0.2, 0.2)));
        assert!(matches!(err, Err(GpuError::UnknownStream(99))));
        assert!(e.descs.slots.iter().all(|s| s.live == 0));
        let engine_only = e.descs.slots.iter().filter_map(|s| s.desc.as_ref());
        assert_eq!(engine_only.filter(|d| Arc::strong_count(d) == 1).count(), 1);
    }

    /// Allocates descriptors until one lands at `addr`, keeping the misses
    /// alive so each try gets a new address. The new descriptor is invalid,
    /// so only a fresh validation can tell it from the old one.
    fn invalid_desc_at(addr: usize) -> Arc<KernelDesc> {
        let mut proto = (*kernel(9, 10, 4, 0.2, 0.2)).clone();
        proto.grid_blocks = 0;
        let mut misses = Vec::new();
        for _ in 0..100_000 {
            let k = Arc::new(proto.clone());
            if Arc::as_ptr(&k) as usize == addr {
                return k;
            }
            misses.push(k);
        }
        panic!("the allocator never reused address {addr:#x}");
    }

    #[test]
    fn reused_address_is_validated_afresh() {
        let mut e = engine();
        let s = e.create_stream(StreamPriority::DEFAULT);

        // Freed at release: the engine held the only reference.
        let a = kernel(0, 10, 4, 0.2, 0.2);
        let addr = Arc::as_ptr(&a) as usize;
        e.submit_kernel(s, &a).unwrap();
        drop(a);
        e.advance_to(SimTime::from_micros(10));
        e.drain_completions();
        assert!(e.descs.index.is_empty());
        let b = invalid_desc_at(addr);
        assert!(matches!(e.submit_kernel(s, &b), Err(GpuError::InvalidKernel(_))));

        // Freed by a sweep: the caller let go after the op finished.
        let c = kernel(1, 10, 4, 0.2, 0.2);
        let addr = Arc::as_ptr(&c) as usize;
        e.submit_kernel(s, &c).unwrap();
        e.advance_to(SimTime::from_micros(20));
        e.drain_completions();
        drop(c);
        assert_eq!(e.descs.index.len(), 1, "the engine's handle pins the address");
        // Grow the table to its sweep point with descriptors that stay held.
        let held: Vec<_> = (0..DESC_SWEEP_MIN as u32).map(|i| fresh(100 + i)).collect();
        let mut t = SimTime::from_micros(20);
        for k in &held {
            e.submit_kernel(s, k).unwrap();
            t += SimTime::from_micros(10);
            e.advance_to(t);
            e.drain_completions();
        }
        assert!(!e.descs.index.contains_key(&addr), "the sweep freed the released slot");
        let d = invalid_desc_at(addr);
        assert!(matches!(e.submit_kernel(s, &d), Err(GpuError::InvalidKernel(_))));
        // The held descriptors still hit.
        let misses = e.desc_intern_miss_count();
        e.submit_kernel(s, &held[0]).unwrap();
        assert_eq!(e.desc_intern_miss_count(), misses);
    }

    /// Seeded churn over every op kind, fault injection and resets. Debug
    /// builds check every memoised next-event answer against a fresh scan
    /// and every `advance_to` against a final scan, so this covers the
    /// copy, sync, fault and reset paths of the memo's invalidation rule.
    #[test]
    fn seeded_churn_keeps_the_next_event_memo_exact() {
        use crate::fault::{FaultPlan, FaultRates};
        use orion_desim::rng::DetRng;
        let mut statuses = [0u64; 3];
        for seed in 0..8u64 {
            let mut rng = DetRng::new(seed);
            let mut e = engine();
            e.enable_event_log();
            if seed % 2 == 1 {
                e.set_fault_plan(FaultPlan::seeded(
                    seed,
                    FaultRates {
                        kernel_fault: 0.01,
                        stall: 0.02,
                        copy_fail: 0.05,
                        malloc_fail: 0.05,
                    },
                ));
            }
            let streams: Vec<_> = (0..4)
                .map(|i| {
                    let p = if i == 0 { StreamPriority::HIGH } else { StreamPriority::DEFAULT };
                    e.create_stream(p)
                })
                .collect();
            let ev = e.create_event();
            let protos: Vec<_> = (0..6)
                .map(|i| kernel(i, 5 + 7 * i as u64, 10 + 12 * i, 0.15 * i as f64, 0.8 - 0.1 * i as f64))
                .collect();
            let mut allocs = Vec::new();
            let (mut submitted, mut completed) = (0u64, 0u64);
            let mut t = SimTime::ZERO;
            for _ in 0..600 {
                let s = streams[rng.uniform_u64(streams.len() as u64) as usize];
                let kind = match rng.uniform_u64(10) {
                    0..=4 => OpKind::Kernel(Arc::clone(&protos[rng.uniform_u64(6) as usize])),
                    5 => OpKind::Kernel(fresh(50 + rng.uniform_u64(4) as u32)),
                    6 => OpKind::MemcpyH2D {
                        bytes: 1 + rng.uniform_u64(200_000),
                        blocking: rng.uniform_u64(2) == 0,
                    },
                    7 => OpKind::MemcpyD2H { bytes: 1 + rng.uniform_u64(200_000), blocking: false },
                    8 => match allocs.pop() {
                        Some(alloc) if rng.uniform_u64(2) == 0 => OpKind::Free { alloc },
                        _ => OpKind::Malloc { bytes: 1 << 16 },
                    },
                    _ => OpKind::EventRecord { event: ev },
                };
                match e.submit(s, kind) {
                    Ok(_) => submitted += 1,
                    Err(GpuError::DeviceFault) => e.reset_device(),
                    Err(err) => panic!("unexpected submit error {err:?}"),
                }
                // A repeated query on unchanged state is a memo hit.
                let next = e.next_event_time();
                let scans = e.completion_scan_count();
                assert_eq!(e.next_event_time(), next);
                assert_eq!(e.completion_scan_count(), scans);
                t = match (rng.uniform_u64(4), next) {
                    (0, _) | (_, None) => t,
                    (1, Some(n)) => n,
                    _ => t + SimTime::from_nanos(rng.uniform_u64(40_000)),
                };
                e.advance_to(t);
                if rng.uniform_u64(50) == 0 {
                    e.reset_device();
                }
                for c in e.drain_completions() {
                    completed += 1;
                    statuses[c.status as usize] += 1;
                    if let Some(alloc) = c.alloc {
                        allocs.push(alloc);
                    }
                }
            }
            e.advance_to(t + SimTime::from_secs(10));
            e.reset_device();
            completed += e.drain_completions().len() as u64;
            assert_eq!(completed, submitted, "seed {seed}: every op finishes once");
            assert!(e.fully_idle());
            assert!(e.descs.slots.iter().all(|s| s.live == 0));
        }
        let [ok, faulted, aborted] = statuses;
        assert!(ok > 1000 && faulted > 0 && aborted > 0, "{statuses:?}");
    }
}
