//! Orion: an interference-aware, fine-grained GPU scheduler (EuroSys '24),
//! reproduced against a simulated GPU substrate.
//!
//! Orion transparently intercepts the GPU operations of multiple DNN clients
//! sharing one device, buffers them in per-client software queues, and
//! submits them to the hardware with a policy that accounts for each
//! kernel's compute/memory profile, SM demand, and expected duration
//! (paper §5, Listing 1). This crate contains:
//!
//! * [`client`] — the client-side state machine: per-client software queues,
//!   request lifecycles, framework launch run-ahead, and blocking-op
//!   semantics (§5.1.3, §5.3);
//! * [`policy`] — the Orion scheduling policy with all its ablation knobs,
//!   and every baseline the paper compares against (temporal sharing, GPU
//!   Streams, stream priorities, MPS, REEF-N, Tick-Tock);
//! * [`world`] — the collocation engine: a discrete-event world wiring
//!   clients + policy + the simulated GPU, producing per-client latency and
//!   throughput plus device utilization;
//! * [`online`] — online profiling: streaming per-kernel duration
//!   estimators, the `Unknown → Observing → Admitted` admission ladder with
//!   drift detection, and adaptive `DUR_THRESHOLD` tuning, for runs that
//!   start with no offline profiles (DESIGN.md §12);
//! * [`tuning`] — the `SM_THRESHOLD` binary-search auto-tuner (§5.1.1);
//! * [`placement`] — profile-driven cluster placement: demand vectors,
//!   complementarity scoring and the k-way [`placement::FleetPlacer`] (§7
//!   "cluster manager co-design" extension);
//! * [`cluster`] — multi-GPU simulation: the fleet control plane
//!   ([`cluster::FleetSim`]) driving GPUs through arrival/departure churn
//!   with optional online re-placement and migration; a static cluster is a
//!   one-epoch run of a [`cluster::FleetTrace::fixed`] trace;
//! * [`runtime`] — a real multi-threaded interception front-end (per-client
//!   software queues) used to measure kernel-launch interception overhead
//!   (§6.5).
//!
//! # Examples
//!
//! ```
//! use orion_core::prelude::*;
//! use orion_desim::time::SimTime;
//! use orion_workloads::{inference_workload, training_workload, ArrivalProcess, ModelKind};
//!
//! let clients = vec![
//!     ClientSpec::high_priority(
//!         inference_workload(ModelKind::ResNet50),
//!         ArrivalProcess::Poisson { rps: 15.0 },
//!     ),
//!     ClientSpec::best_effort(
//!         training_workload(ModelKind::MobileNetV2),
//!         ArrivalProcess::ClosedLoop,
//!     ),
//! ];
//! let cfg = RunConfig::quick_test();
//! let result = run_collocation(PolicyKind::orion_default(), clients, &cfg)
//!     .expect("both jobs fit in device memory");
//! assert!(result.hp().completed > 0);
//! ```

pub mod client;
pub mod cluster;
pub mod online;
pub mod placement;
pub mod policy;
pub mod runtime;
pub mod serving;
pub mod supervisor;
pub mod tuning;
pub mod validate;
pub mod world;

/// Convenience re-exports for experiment code.
pub mod prelude {
    pub use crate::client::{ClientPriority, ClientSpec};
    pub use crate::cluster::{
        ClusterError, DedicatedRef, EpisodeSpec, FleetConfig, FleetJob, FleetReport, FleetSim,
        FleetTrace, FleetTraceConfig,
    };
    pub use crate::online::{OnlineConfig, OnlineReport};
    pub use crate::policy::{OrionConfig, PolicyKind};
    pub use crate::serving::{
        run_serving, AdmissionConfig, ServingConfig, ServingError, ServingPolicy, ServingReport,
        SloConfig,
    };
    pub use crate::supervisor::{
        ClientFault, ClientFaultKind, FaultConfig, RobustnessReport, SupervisorConfig,
    };
    pub use crate::validate::{ValidateMode, ValidationReport};
    pub use crate::world::{
        run_collocation, run_collocation_with_profiles, ClientResult, RunConfig, RunResult,
    };
    pub use orion_gpu::fault::{FaultKind, FaultRates, FaultTarget};
}

pub use client::{ClientPriority, ClientSpec};
pub use policy::{OrionConfig, PolicyKind};
pub use world::{run_collocation, ClientResult, RunConfig, RunResult};
