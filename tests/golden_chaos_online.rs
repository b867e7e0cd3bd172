//! Second golden-digest pin: a multi-stream chaos + online-profiling arm.
//!
//! The gpu-sim golden trace (`crates/gpu-sim/tests/golden_trace.rs`) pins the
//! engine on a hand-written fault-free scenario. This test pins the *hard*
//! configuration instead: a full `run_collocation` with several clients
//! (multiple streams under Orion), probabilistic fault injection with the
//! recovery supervisor armed, and online profiling learning live — the paths
//! where an incremental interference evaluator is most likely to diverge from
//! the full one (membership churn from aborts/resets, rate-certified clean
//! samples, requeued resubmissions). The full execution trace is hashed with
//! FNV-1a; the digest must stay **byte-identical** across engine refactors.
//!
//! Do not "fix" the constants to make a behavioural change pass: a mismatch
//! means nanosecond-exact simulation results changed.
//!
//! The lazy per-rate-class engine core (PR 7) reproduces this digest
//! byte-identically: kernels materialize remaining work from per-class
//! virtual time, but never-contended (unit-rate) kernels only ever join
//! classes whose virtual time is an exact integer nanosecond count, so their
//! completion times are bitwise unchanged, and the contended-class
//! materialization drift stays below the completion-rounding granularity on
//! this scenario. The ongoing bound is enforced by
//! `crates/gpu-sim/tests/incremental_eq.rs`
//! (`lazy_materialization_matches_eager_integration`): bitwise equality for
//! never-contended kernels, <= 0.01 ns for contended ones.

use orion::core::client::ClientPriority;
use orion::prelude::*;
use orion_gpu::trace::ExecTrace;
use orion_workloads::arrivals::ArrivalProcess;
use orion_workloads::model::ModelKind;
use orion_workloads::registry::{inference_workload, training_workload};

/// Committed digest of the chaos+online collocation trace.
const GOLDEN_CHAOS_ONLINE_DIGEST: u64 = 0x0b1ea6748bfa8163;
/// Committed span count of the same trace (cheap first-line diagnostic).
const GOLDEN_CHAOS_ONLINE_SPANS: usize = 4454;

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

/// The pinned scenario: Orion over one HP inference client and two BE
/// training clients (multiple streams + PCIe copies), kernel/copy/malloc
/// faults with the supervisor recovering, and online profiling learning from
/// engine-certified samples.
fn scenario() -> RunResult {
    let mut cfg = RunConfig::quick_test().with_seed(0x0C0FFEE);
    cfg.horizon = SimTime::from_millis(600);
    cfg.warmup = SimTime::from_millis(100);
    cfg.record_trace = true;
    // Strict oracle: the run must also stay bookkeeping-clean while pinned.
    cfg.validate = ValidateMode::Strict;
    cfg.faults = FaultConfig::none().with_rates(FaultRates {
        kernel_fault: 2e-3,
        copy_fail: 4e-3,
        malloc_fail: 2e-3,
        ..FaultRates::default()
    });
    cfg.online = true;
    let clients = vec![
        ClientSpec::high_priority(
            inference_workload(ModelKind::ResNet50),
            ArrivalProcess::Poisson { rps: 30.0 },
        ),
        ClientSpec::best_effort(
            training_workload(ModelKind::MobileNetV2),
            ArrivalProcess::ClosedLoop,
        ),
        ClientSpec::best_effort(
            training_workload(ModelKind::ResNet50),
            ArrivalProcess::ClosedLoop,
        ),
    ];
    run_collocation(PolicyKind::orion_default(), clients, &cfg).expect("chaos+online run")
}

#[test]
fn chaos_online_trace_digest_is_unchanged() {
    let r = scenario();
    let trace = r.trace.as_ref().expect("trace recorded");
    assert!(
        r.clients
            .iter()
            .any(|c| c.priority == ClientPriority::HighPriority && !c.latency.is_empty()),
        "HP client made no progress — scenario degenerated"
    );
    let d = digest(trace);
    assert_eq!(
        (trace.len(), d),
        (GOLDEN_CHAOS_ONLINE_SPANS, GOLDEN_CHAOS_ONLINE_DIGEST),
        "chaos+online execution trace changed: {} spans, digest {d:#018x}.\n\
         The engine produced different simulation results on the fault-injection\n\
         + online-profiling configuration. This is a behavioural regression\n\
         unless the simulation semantics were deliberately changed.",
        trace.len()
    );
}

#[test]
fn chaos_online_trace_digest_is_deterministic_across_runs() {
    let a = scenario();
    let b = scenario();
    let (ta, tb) = (a.trace.expect("trace"), b.trace.expect("trace"));
    assert_eq!(ta.len(), tb.len());
    assert_eq!(digest(&ta), digest(&tb));
}
