//! Exact-variant coverage of every [`GpuError`] the simulated CUDA API can
//! surface, including the sticky [`GpuError::DeviceFault`] state machine
//! (fault → every submit rejected → `reset_device` → submits accepted).

use std::sync::Arc;

use orion_desim::time::SimTime;
use orion_gpu::engine::{CompletionStatus, EventId, GpuEngine, OpKind};
use orion_gpu::error::GpuError;
use orion_gpu::fault::{FaultKind, FaultPlan, FaultTarget};
use orion_gpu::kernel::{KernelBuilder, KernelDesc};
use orion_gpu::memory::AllocId;
use orion_gpu::spec::GpuSpec;
use orion_gpu::stream::{StreamId, StreamPriority};

fn engine() -> GpuEngine {
    GpuEngine::new(GpuSpec::v100_16gb(), true)
}

fn kernel(id: u32) -> Arc<KernelDesc> {
    KernelBuilder::new(id, format!("k{id}"))
        .grid_blocks(80)
        .threads_per_block(1024)
        .regs_per_thread(16)
        .solo_duration(SimTime::from_micros(50))
        .utilization(0.5, 0.3)
        .build()
}

#[test]
fn memcpy_to_unknown_stream_is_rejected() {
    let mut e = engine();
    // No stream was ever created; id 7 cannot exist.
    let err = e
        .submit(
            StreamId(7),
            OpKind::MemcpyH2D {
                bytes: 1024,
                blocking: false,
            },
        )
        .unwrap_err();
    assert_eq!(err, GpuError::UnknownStream(7));
    assert!(!e.busy(), "rejected op must not occupy the device");
    // A kernel launch takes its own path (descriptor interning first).
    assert_eq!(
        e.submit_kernel(StreamId(7), &kernel(0)).unwrap_err(),
        GpuError::UnknownStream(7)
    );
    assert!(!e.busy(), "rejected kernel must not occupy the device");
}

#[test]
fn stream_depth_of_unknown_stream_is_rejected() {
    let e = engine();
    assert_eq!(e.stream_depth(StreamId(3)).unwrap_err(), GpuError::UnknownStream(3));
}

#[test]
fn alloc_past_capacity_reports_requested_and_available() {
    let mut e = engine();
    let capacity = e.memory().capacity();
    let half = e.alloc_immediate(capacity / 2).unwrap();
    let err = e.alloc_immediate(capacity).unwrap_err();
    assert_eq!(
        err,
        GpuError::OutOfMemory {
            requested: capacity,
            available: capacity - capacity / 2,
        }
    );
    // The failed allocation must not leak ledger space.
    assert_eq!(e.free_immediate(half).unwrap(), capacity / 2);
    assert_eq!(e.memory().used(), 0);
}

#[test]
fn event_query_of_unknown_event_is_rejected() {
    let mut e = engine();
    assert_eq!(e.event_done(EventId(99)).unwrap_err(), GpuError::UnknownEvent(99));
    assert_eq!(e.event_reset(EventId(99)).unwrap_err(), GpuError::UnknownEvent(99));
    // A created event is queryable (false until recorded and completed).
    let ev = e.create_event();
    assert_eq!(e.event_done(ev), Ok(false));
}

#[test]
fn free_of_unknown_allocation_is_rejected() {
    let mut e = engine();
    assert_eq!(
        e.free_immediate(AllocId(42)).unwrap_err(),
        GpuError::UnknownAllocation(42)
    );
    // Double-free of a real allocation takes the same path.
    let a = e.alloc_immediate(1 << 20).unwrap();
    e.free_immediate(a).unwrap();
    assert_eq!(e.free_immediate(a).unwrap_err(), GpuError::UnknownAllocation(a.0));
}

#[test]
fn submitted_free_of_unknown_allocation_completes_and_releases_nothing() {
    // Unlike `free_immediate`, a `Free` op is a stream operation: the
    // unknown id cannot fail the submit, so the op completes as a no-op.
    let mut e = engine();
    let s = e.create_stream(StreamPriority::DEFAULT);
    let live = e.alloc_immediate(4096).unwrap();
    let alloc = AllocId(live.0 + 7);
    e.submit(s, OpKind::Free { alloc }).unwrap();
    e.advance_to(SimTime::from_micros(1));
    let done = e.drain_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].kind, "free");
    assert_eq!(done[0].status, CompletionStatus::Ok);
    assert_eq!(e.memory().used(), 4096, "the live allocation is untouched");
}

#[test]
fn submits_after_sticky_fault_fail_until_reset() {
    let mut e = engine();
    e.set_fault_plan(FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::KernelFault));
    let s = e.create_stream(StreamPriority::DEFAULT);
    e.submit(s, OpKind::Kernel(kernel(0))).unwrap();
    e.advance_to(SimTime::from_millis(1));
    let done = e.drain_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, CompletionStatus::Faulted);
    assert!(e.device_faulted());

    // Sticky: every op kind is rejected, even on a valid stream, and the
    // device-fault check precedes stream validation (CUDA sticky semantics).
    for kind in [
        OpKind::Kernel(kernel(1)),
        OpKind::MemcpyH2D {
            bytes: 1,
            blocking: false,
        },
        OpKind::Malloc { bytes: 1 },
    ] {
        assert_eq!(e.submit(s, kind).unwrap_err(), GpuError::DeviceFault);
    }
    assert_eq!(
        e.submit(StreamId(99), OpKind::Malloc { bytes: 1 }).unwrap_err(),
        GpuError::DeviceFault,
    );

    // Reset clears the sticky state; the same submits now succeed.
    e.reset_device();
    assert!(!e.device_faulted());
    e.submit(s, OpKind::Kernel(kernel(1))).unwrap();
    e.advance_to(SimTime::from_millis(2));
    let done = e.drain_completions();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].status, CompletionStatus::Ok);
}

#[test]
fn memory_ledger_survives_device_reset() {
    let mut e = engine();
    e.set_fault_plan(FaultPlan::none().with_target(FaultTarget::Ordinal(0), FaultKind::KernelFault));
    let s = e.create_stream(StreamPriority::DEFAULT);
    let a = e.alloc_immediate(1 << 20).unwrap();
    e.submit(s, OpKind::Kernel(kernel(0))).unwrap();
    e.advance_to(SimTime::from_millis(1));
    e.drain_completions();
    assert!(e.device_faulted());
    e.reset_device();
    // cudaDeviceReset in Orion's recovery path does not tear down the
    // allocation ledger: the supervisor re-admits clients whose memory is
    // still resident.
    assert_eq!(e.memory().used(), 1 << 20);
    assert_eq!(e.free_immediate(a).unwrap(), 1 << 20);
}
