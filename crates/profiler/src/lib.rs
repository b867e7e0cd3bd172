//! Offline workload profiling (paper §5.2).
//!
//! Before execution, Orion profiles each DNN workload on a dedicated GPU and
//! writes a profile file the scheduler loads into an in-memory lookup table
//! keyed by kernel id. The paper collects this with NVIDIA Nsight Compute /
//! Nsight Systems; here the same artifacts are measured by running the
//! workload solo on the simulated device:
//!
//! * per-kernel **execution time** (measured from the solo run),
//! * per-kernel **resource profile** — compute-bound / memory-bound /
//!   unknown — via the roofline + 60%-utilization rule,
//! * per-kernel **SM demand** via the occupancy formula
//!   `sm_needed = ceil(num_blocks / blocks_per_sm)`,
//! * the **solo request latency** (inference batch or training iteration),
//!   which parameterizes `DUR_THRESHOLD`,
//! * the workload's average utilizations (the rows of Table 1).

pub mod profile;
pub mod run;

pub use profile::{KernelProfile, ProfileTable, WorkloadProfile};
pub use run::{kernel_profile, profile_workload, solo_run, SoloRunStats};
