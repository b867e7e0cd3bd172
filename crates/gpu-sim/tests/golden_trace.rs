//! Golden-digest regression test for the engine's execution semantics.
//!
//! A fixed multi-stream scenario mixing kernels, async and blocking copies,
//! `Malloc`/`Free` synchronization points, and event records is executed with
//! tracing enabled, and the full [`ExecTrace`] — every span's name, stream,
//! and nanosecond-exact submit/dispatch/completion times — is hashed with
//! FNV-1a. The digest below was recorded against the pre-slab (HashMap-based)
//! engine; any refactor of the engine's data layout or inner loop must keep
//! it **byte-identical**. Do not "fix" the constant to make a behavioural
//! change pass: a digest mismatch means simulation results changed.

use orion_desim::time::SimTime;
use orion_gpu::engine::{GpuEngine, OpKind};
use orion_gpu::fault::FaultPlan;
use orion_gpu::kernel::KernelBuilder;
use orion_gpu::spec::GpuSpec;
use orion_gpu::stream::StreamPriority;
use orion_gpu::trace::ExecTrace;

/// The committed digest of [`scenario`]'s trace (pre-refactor engine).
const GOLDEN_DIGEST: u64 = 0xdf5c77d35a6a935e;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Hashes every span field that the simulation semantics determine.
fn digest(trace: &ExecTrace) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &(trace.len() as u64).to_le_bytes());
    for s in &trace.spans {
        fnv1a(&mut h, s.name.as_bytes());
        fnv1a(&mut h, s.kind.as_bytes());
        fnv1a(&mut h, &s.stream.0.to_le_bytes());
        fnv1a(&mut h, &s.submitted.as_nanos().to_le_bytes());
        fnv1a(&mut h, &s.dispatched.as_nanos().to_le_bytes());
        fnv1a(&mut h, &s.completed.as_nanos().to_le_bytes());
    }
    h
}

/// A deterministic collocation scenario touching every op kind and both the
/// priority-dispatch and device-synchronization paths.
fn scenario() -> ExecTrace {
    scenario_with(None)
}

/// Same scenario, optionally installing a fault plan before any submit.
fn scenario_with(plan: Option<FaultPlan>) -> ExecTrace {
    let mut e = GpuEngine::new(GpuSpec::v100_16gb(), true);
    if let Some(plan) = plan {
        e.set_fault_plan(plan);
    }
    e.enable_trace();
    let hp = e.create_stream(StreamPriority::HIGH);
    let be1 = e.create_stream(StreamPriority::DEFAULT);
    let be2 = e.create_stream(StreamPriority::DEFAULT);

    let kernel = |id: u32, us: u64, sm: u32, c: f64, m: f64| {
        KernelBuilder::new(id, format!("k{id}"))
            .grid_blocks(2 * sm)
            .threads_per_block(1024)
            .regs_per_thread(16)
            .solo_duration(SimTime::from_micros(us))
            .utilization(c, m)
            .build()
    };

    // Phase 1: contended kernels on all three streams (compute vs memory
    // profiles exercise every interference-model branch).
    e.submit(be1, OpKind::Kernel(kernel(0, 120, 80, 0.9, 0.15))).unwrap();
    e.submit(be2, OpKind::Kernel(kernel(1, 90, 30, 0.14, 0.8))).unwrap();
    e.submit(hp, OpKind::Kernel(kernel(2, 40, 80, 0.9, 0.1))).unwrap();
    e.submit(hp, OpKind::Kernel(kernel(3, 25, 20, 0.3, 0.3))).unwrap();

    // Phase 2 (submitted mid-flight at t=50us): copies, one blocking.
    e.advance_to(SimTime::from_micros(50));
    e.submit(
        be1,
        OpKind::MemcpyH2D {
            bytes: 6_000_000,
            blocking: false,
        },
    )
    .unwrap();
    e.submit(
        be2,
        OpKind::MemcpyD2H {
            bytes: 3_000_000,
            blocking: true,
        },
    )
    .unwrap();
    e.submit(hp, OpKind::Kernel(kernel(4, 60, 40, 0.5, 0.4))).unwrap();

    // Phase 3: a device-wide sync (malloc), an event, and a trailing kernel.
    e.advance_to(SimTime::from_micros(400));
    e.submit(be1, OpKind::Malloc { bytes: 1 << 20 }).unwrap();
    let ev = e.create_event();
    e.submit(be2, OpKind::EventRecord { event: ev }).unwrap();
    e.submit(hp, OpKind::Kernel(kernel(5, 30, 40, 0.7, 0.2))).unwrap();

    e.advance_to(SimTime::from_millis(2));
    let done = e.drain_completions();
    assert_eq!(done.len(), 10, "all submitted ops completed");
    let alloc = done
        .iter()
        .find_map(|c| c.alloc)
        .expect("malloc produced an allocation");

    // Phase 4: free the allocation (second sync path) behind one more kernel.
    e.submit(be2, OpKind::Kernel(kernel(6, 20, 30, 0.2, 0.7))).unwrap();
    e.submit(be1, OpKind::Free { alloc }).unwrap();
    e.advance_to(SimTime::from_millis(3));
    assert_eq!(e.drain_completions().len(), 2);
    assert!(e.event_done(ev).unwrap());
    assert_eq!(e.memory().used(), 0);

    e.take_trace().expect("trace enabled")
}

#[test]
fn trace_digest_is_unchanged() {
    let trace = scenario();
    assert_eq!(trace.len(), 12, "span count changed");
    let d = digest(&trace);
    assert_eq!(
        d, GOLDEN_DIGEST,
        "execution trace changed: digest {d:#018x} != golden {GOLDEN_DIGEST:#018x}.\n\
         The engine produced different simulation results (names, streams, or\n\
         nanosecond timings differ). This is a behavioural regression unless the\n\
         simulation semantics were deliberately changed."
    );
}

#[test]
fn trace_digest_is_deterministic_across_runs() {
    assert_eq!(digest(&scenario()), digest(&scenario()));
}

#[test]
fn empty_fault_plan_is_a_strict_no_op() {
    // Installing a zero-rate, zero-target fault plan must leave the engine's
    // execution byte-identical to never installing one: same span count, same
    // nanosecond timings, same golden digest. This is the fault-injection
    // layer's "off means off" guarantee.
    let trace = scenario_with(Some(FaultPlan::none()));
    assert_eq!(trace.len(), 12, "span count changed under empty fault plan");
    assert_eq!(
        digest(&trace),
        GOLDEN_DIGEST,
        "an empty FaultPlan perturbed the execution trace"
    );
}

// ---- Lone-kernel transitions ----
//
// The scenarios below drive the engine through every way a kernel running
// alone can start, be joined by a second kernel, stall, fault or share the
// device with a copy or a sync op. Each digest folds the execution trace, every
// completion (status, dispatch time, interference flag) and the utilization
// integrals. The constants were recorded by running these tests against the
// engine as it was before lone kernels bypassed the interference evaluator
// and the rate-class heap; that path must reproduce them bit for bit.

use orion_gpu::engine::Completion;
use orion_gpu::fault::{FaultKind, FaultTarget};
use orion_gpu::kernel::KernelDesc;
use std::sync::Arc;

/// A kernel needing `sm` SMs (two 1024-thread blocks per SM) for `ns`
/// nanoseconds of solo work at the given compute / memory demand.
fn kernel_ns(id: u32, ns: u64, sm: u32, c: f64, m: f64) -> Arc<KernelDesc> {
    KernelBuilder::new(id, format!("t{id}"))
        .grid_blocks(2 * sm)
        .threads_per_block(1024)
        .regs_per_thread(16)
        .solo_duration(SimTime::from_nanos(ns))
        .utilization(c, m)
        .build()
}

/// A traced engine with one BE (default-priority) and one HP stream.
fn traced_engine(plan: Option<FaultPlan>) -> GpuEngine {
    let mut e = GpuEngine::new(GpuSpec::v100_16gb(), true);
    if let Some(plan) = plan {
        e.set_fault_plan(plan);
    }
    e.enable_trace();
    e
}

/// Drains the engine's completions into `out`.
fn collect(e: &mut GpuEngine, out: &mut Vec<Completion>) {
    out.extend(e.drain_completions());
}

/// Folds the trace, the completions and the utilization summary into one
/// FNV-1a digest.
fn transition_digest(e: &mut GpuEngine, done: &[Completion]) -> u64 {
    let trace = e.take_trace().expect("trace enabled");
    let mut h = digest(&trace);
    fnv1a(&mut h, &(done.len() as u64).to_le_bytes());
    for c in done {
        fnv1a(&mut h, &c.op.0.to_le_bytes());
        fnv1a(&mut h, &c.stream.0.to_le_bytes());
        fnv1a(&mut h, &c.at.as_nanos().to_le_bytes());
        let dispatched = c.dispatched_at.map_or(u64::MAX, |t| t.as_nanos());
        fnv1a(&mut h, &dispatched.to_le_bytes());
        fnv1a(&mut h, c.kind.as_bytes());
        fnv1a(&mut h, &[c.interfered as u8, c.status as u8, c.alloc.is_some() as u8]);
    }
    let u = e.util_summary();
    for x in [u.compute, u.mem_bw, u.sm_busy] {
        fnv1a(&mut h, &x.to_bits().to_le_bytes());
    }
    fnv1a(&mut h, &u.elapsed.as_nanos().to_le_bytes());
    h
}

fn assert_transition(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x} != golden {want:#018x} (lone-kernel transition changed)"
    );
}

/// 200 kernels on one stream, each submitted at its own launch instant with
/// `advance_to` in between, so every kernel runs alone.
fn solo_chain() -> u64 {
    let mut e = traced_engine(None);
    let s = e.create_stream(StreamPriority::DEFAULT);
    let shapes: Vec<_> = (0..5)
        .map(|i| {
            let x = f64::from(i);
            kernel_ns(i, 900 + 1_337 * u64::from(i), 10 + 14 * i, 0.1 + 0.2 * x, 0.7 - 0.15 * x)
        })
        .collect();
    let mut done = Vec::new();
    let mut t = SimTime::ZERO;
    for i in 0..200u64 {
        // Launch gaps vary so some kernels queue behind their predecessor
        // and some find the device idle.
        t += SimTime::from_nanos(1_500 + (i * 7_919) % 4_000);
        e.advance_to(t);
        e.submit_kernel(s, &shapes[(i % 5) as usize]).unwrap();
        collect(&mut e, &mut done);
    }
    e.advance_to(t + SimTime::from_millis(5));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 200);
    transition_digest(&mut e, &done)
}

/// Two kernels dispatched at the same instant, the later one on the HIGH
/// stream: the first is joined by the second before any refresh, and the
/// HIGH kernel must still be granted first.
fn same_instant_pair() -> u64 {
    let mut e = traced_engine(None);
    let hp = e.create_stream(StreamPriority::HIGH);
    let be = e.create_stream(StreamPriority::DEFAULT);
    let mut done = Vec::new();
    e.advance_to(SimTime::from_micros(3));
    e.submit_kernel(be, &kernel_ns(0, 70_000, 60, 0.85, 0.2)).unwrap();
    e.submit_kernel(hp, &kernel_ns(1, 30_000, 50, 0.2, 0.75)).unwrap();
    e.advance_to(SimTime::from_millis(1));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 2);
    transition_digest(&mut e, &done)
}

/// A BE kernel runs alone long enough to be rated, then an HP kernel
/// arrives mid-flight; `over` picks demands that push the pair over the
/// compute roof (the BE cohort then changes rate wholesale).
fn hp_joins_mid_flight(over: bool) -> u64 {
    let mut e = traced_engine(None);
    let hp = e.create_stream(StreamPriority::HIGH);
    let be = e.create_stream(StreamPriority::DEFAULT);
    let (be_k, hp_k) = if over {
        (kernel_ns(0, 120_000, 80, 0.9, 0.15), kernel_ns(1, 40_000, 40, 0.8, 0.2))
    } else {
        (kernel_ns(0, 120_000, 40, 0.3, 0.2), kernel_ns(1, 40_000, 30, 0.3, 0.3))
    };
    let mut done = Vec::new();
    e.submit_kernel(be, &be_k).unwrap();
    e.submit_kernel(be, &be_k).unwrap();
    e.advance_to(SimTime::from_nanos(25_001));
    e.submit_kernel(hp, &hp_k).unwrap();
    e.advance_to(SimTime::from_nanos(61_234));
    collect(&mut e, &mut done);
    e.submit_kernel(hp, &hp_k).unwrap();
    e.advance_to(SimTime::from_millis(1));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 4);
    transition_digest(&mut e, &done)
}

/// A lone kernel carrying an injected stall, then a clean one behind it.
fn lone_stall() -> u64 {
    let plan = FaultPlan::none()
        .with_target(FaultTarget::Ordinal(1), FaultKind::Stall)
        .with_stall(SimTime::from_nanos(33_333));
    let mut e = traced_engine(Some(plan));
    let s = e.create_stream(StreamPriority::DEFAULT);
    let k = kernel_ns(0, 10_000, 20, 0.4, 0.4);
    let mut done = Vec::new();
    for i in 0..3u64 {
        e.advance_to(SimTime::from_nanos(1 + 5_000 * i));
        e.submit_kernel(s, &k).unwrap();
    }
    e.advance_to(SimTime::from_millis(1));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 3);
    transition_digest(&mut e, &done)
}

/// A lone kernel faults (sticky), aborting the queue behind it; the device
/// is reset and a fresh lone kernel runs.
fn lone_fault_then_reset() -> u64 {
    let plan = FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::KernelFault);
    let mut e = traced_engine(Some(plan));
    let s = e.create_stream(StreamPriority::DEFAULT);
    let s2 = e.create_stream(StreamPriority::DEFAULT);
    let k = kernel_ns(0, 8_000, 30, 0.5, 0.3);
    let mut done = Vec::new();
    e.submit_kernel(s, &k).unwrap();
    e.submit_kernel(s, &k).unwrap();
    e.advance_to(SimTime::from_micros(20));
    collect(&mut e, &mut done);
    assert!(e.device_faulted());
    e.advance_to(SimTime::from_micros(21));
    e.reset_device();
    e.submit_kernel(s2, &k).unwrap();
    e.advance_to(SimTime::from_micros(25));
    e.submit_kernel(s, &kernel_ns(1, 6_000, 70, 0.6, 0.5)).unwrap();
    e.advance_to(SimTime::from_micros(100));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 4);
    transition_digest(&mut e, &done)
}

/// A blocking copy and a `Malloc` submitted while a lone kernel runs: the
/// copy overlaps it and holds back the next kernel, the malloc waits for
/// the device to drain.
fn lone_kernel_with_copy_and_malloc() -> u64 {
    let mut e = traced_engine(None);
    let k_s = e.create_stream(StreamPriority::DEFAULT);
    let c_s = e.create_stream(StreamPriority::DEFAULT);
    let m_s = e.create_stream(StreamPriority::HIGH);
    let k = kernel_ns(0, 50_000, 40, 0.6, 0.2);
    let mut done = Vec::new();
    e.submit_kernel(k_s, &k).unwrap();
    e.submit_kernel(k_s, &k).unwrap();
    e.advance_to(SimTime::from_micros(10));
    e.submit(c_s, OpKind::MemcpyH2D { bytes: 2_000_000, blocking: true }).unwrap();
    e.advance_to(SimTime::from_micros(30));
    e.submit(m_s, OpKind::Malloc { bytes: 1 << 20 }).unwrap();
    e.submit_kernel(m_s, &kernel_ns(1, 20_000, 20, 0.3, 0.6)).unwrap();
    e.advance_to(SimTime::from_millis(2));
    collect(&mut e, &mut done);
    assert_eq!(done.len(), 5);
    transition_digest(&mut e, &done)
}

#[test]
fn lone_kernel_chain_digest_is_unchanged() {
    assert_transition("solo_chain", solo_chain(), 0xcab97deecb4f8ad9);
}

#[test]
fn same_instant_pair_digest_is_unchanged() {
    assert_transition("same_instant_pair", same_instant_pair(), 0x00ede054894cde5f);
}

#[test]
fn hp_joining_lone_be_kernel_digests_are_unchanged() {
    assert_transition("hp_joins_under", hp_joins_mid_flight(false), 0x8481bcba5d3b8e5d);
    assert_transition("hp_joins_over", hp_joins_mid_flight(true), 0xe7883de2c552f139);
}

#[test]
fn lone_stall_digest_is_unchanged() {
    assert_transition("lone_stall", lone_stall(), 0x079fdae50a9d17b6);
}

#[test]
fn lone_fault_then_reset_digest_is_unchanged() {
    assert_transition("lone_fault_then_reset", lone_fault_then_reset(), 0xc39cefcfd7f7709e);
}

#[test]
fn lone_kernel_with_copy_and_malloc_digest_is_unchanged() {
    assert_transition("lone_copy_malloc", lone_kernel_with_copy_and_malloc(), 0xdbad9602f0e782b2);
}
