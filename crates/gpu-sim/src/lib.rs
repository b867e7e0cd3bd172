//! A discrete-event GPU device simulator with CUDA runtime semantics.
//!
//! This crate is the hardware substrate for the Orion (EuroSys '24)
//! reproduction. It models the parts of a GPU that Orion's scheduling policy
//! interacts with:
//!
//! * **Streaming multiprocessors (SMs)** with per-SM occupancy limits
//!   (threads, registers, shared memory, resident blocks), granted to kernels
//!   non-preemptively in (stream-priority, FIFO) order — once a kernel holds
//!   SMs it keeps them until it completes, exactly the property that motivates
//!   Orion's `DUR_THRESHOLD` throttling.
//! * **Streams** with priorities and in-order execution, and **events** with
//!   non-blocking completion queries (`cudaEventQuery`).
//! * A **roofline interference model**: concurrently running kernels share
//!   normalized compute throughput and memory bandwidth; oversubscription
//!   causes proportional rationing with a contention-efficiency penalty,
//!   calibrated against the paper's Table 2 toy experiment.
//! * A **PCIe copy engine** (blocking copies stall kernel dispatch, matching
//!   the utilization dips of the paper's Figure 8) and **memory capacity
//!   accounting** with device-wide synchronization on `malloc`/`free`.
//! * **Exact utilization accounting**: compute-throughput, memory-bandwidth,
//!   and SM-busy fractions are integrated piecewise over every inter-event
//!   interval, producing the timelines of Figures 1, 8 and 9 and the averages
//!   of Table 1 without sampling noise.
//!
//! The central type is [`engine::GpuEngine`]: its submit, event-query,
//! advance and drain calls are the CUDA runtime calls the scheduling
//! policies drive directly (`submit` of a kernel is `cudaLaunchKernel`,
//! `event_done` is `cudaEventQuery`, and so on).

pub mod engine;
pub mod error;
pub mod fault;
pub mod interference;
pub mod kernel;
pub mod memory;
pub mod spec;
pub mod stream;
pub mod trace;
pub mod util;

pub use engine::{Completion, CompletionStatus, GpuEngine, OpId, OpKind};
pub use error::GpuError;
pub use fault::{FaultKind, FaultPlan, FaultRates, FaultTarget};
pub use kernel::{KernelDesc, ResourceProfile};
pub use spec::GpuSpec;
pub use stream::{StreamId, StreamPriority};
