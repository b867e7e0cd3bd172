//! The solo profiling run: executes a workload alone on a simulated device.

use std::collections::HashMap;

use orion_desim::time::SimTime;
use orion_gpu::engine::{GpuEngine, OpKind};
use orion_gpu::error::GpuError;
use orion_gpu::kernel::{classify_utilization, KernelDesc};
use orion_gpu::spec::GpuSpec;
use orion_gpu::stream::StreamPriority;
use orion_gpu::util::UtilSummary;
use orion_workloads::model::Workload;
use orion_workloads::ops::OpSpec;

use crate::profile::{KernelProfile, WorkloadProfile};

/// Statistics of a solo (dedicated-GPU) run.
#[derive(Debug, Clone)]
pub struct SoloRunStats {
    /// Latency of each request (submission to last-op completion).
    pub request_latencies: Vec<SimTime>,
    /// Average utilizations over the run.
    pub utilization: UtilSummary,
    /// Measured duration per kernel id.
    pub kernel_durations: HashMap<u32, SimTime>,
    /// Peak device memory during the run.
    pub memory_peak: u64,
}

impl SoloRunStats {
    /// Mean request latency.
    pub fn mean_latency(&self) -> SimTime {
        if self.request_latencies.is_empty() {
            return SimTime::ZERO;
        }
        let total: SimTime = self.request_latencies.iter().copied().sum();
        total / self.request_latencies.len() as u64
    }
}

/// Runs `iterations` back-to-back requests of `workload` alone on a device
/// with `spec`, measuring per-kernel durations and request latency.
///
/// Requests are submitted in a closed loop on a single stream, mirroring
/// how the paper profiles with Nsight ("the first 10 mini-batches ... or 10
/// requests", §6.5).
pub fn solo_run(
    workload: &Workload,
    spec: &GpuSpec,
    iterations: u32,
) -> Result<SoloRunStats, GpuError> {
    let mut engine = GpuEngine::new(spec.clone(), false);
    let stream = engine.create_stream(StreamPriority::DEFAULT);
    let _model_state = engine.alloc_immediate(workload.memory_footprint)?;

    let mut request_latencies = Vec::with_capacity(iterations as usize);
    let mut kernel_durations: HashMap<u32, SimTime> = HashMap::new();
    // Map op id -> kernel id to attribute completions.
    let mut op_to_kernel: HashMap<u64, u32> = HashMap::new();

    for _ in 0..iterations {
        let start = engine.now();
        for (_, op) in &workload.ops {
            let kind = match op {
                OpSpec::Kernel(k) => OpKind::Kernel(k.clone()),
                OpSpec::H2D { bytes, blocking } => OpKind::MemcpyH2D {
                    bytes: *bytes,
                    blocking: *blocking,
                },
                OpSpec::D2H { bytes, blocking } => OpKind::MemcpyD2H {
                    bytes: *bytes,
                    blocking: *blocking,
                },
            };
            let is_kernel = matches!(op, OpSpec::Kernel(_));
            let op_id = engine.submit(stream, kind)?;
            if is_kernel {
                if let OpSpec::Kernel(k) = op {
                    op_to_kernel.insert(op_id.0, k.kernel_id);
                }
            }
        }
        // Drain the request.
        while let Some(t) = engine.next_event_time() {
            engine.advance_to(t);
        }
        for c in engine.drain_completions() {
            if let Some(&kid) = op_to_kernel.get(&c.op.0) {
                if let Some(d) = c.dispatched_at {
                    kernel_durations.insert(kid, c.at - d);
                }
            }
        }
        request_latencies.push(engine.now() - start);
    }

    let memory_peak = engine.memory().high_water();
    Ok(SoloRunStats {
        request_latencies,
        utilization: engine.util_summary(),
        kernel_durations,
        memory_peak,
    })
}

/// The per-kernel profiling rule: `duration` as measured on a dedicated
/// device, roofline classification of the descriptor's utilizations, and
/// the occupancy calculation on `spec`. A kernel's measured solo duration
/// equals its descriptor's `solo_duration`, so callers that profile a kernel
/// without running it pass that.
pub fn kernel_profile(k: &KernelDesc, duration: SimTime, spec: &GpuSpec) -> KernelProfile {
    KernelProfile {
        kernel_id: k.kernel_id,
        name: k.name.clone(),
        duration,
        profile: classify_utilization(k.compute_util, k.mem_util),
        sm_needed: k.sm_needed(spec),
        compute_util: k.compute_util,
        mem_util: k.mem_util,
    }
}

/// Full offline profiling phase for one workload (paper §5.2): solo run +
/// roofline classification + occupancy calculation.
///
/// Errors if the workload does not fit the profiling device
/// ([`GpuError::OutOfMemory`]) or a submission is rejected.
pub fn profile_workload(workload: &Workload, spec: &GpuSpec) -> Result<WorkloadProfile, GpuError> {
    let stats = solo_run(workload, spec, 10)?;
    let kernels = workload
        .kernels()
        .map(|k| {
            let measured = stats.kernel_durations.get(&k.kernel_id).copied();
            kernel_profile(k, measured.unwrap_or(k.solo_duration), spec)
        })
        .collect();
    Ok(WorkloadProfile {
        label: workload.label(),
        kernels,
        request_latency: stats.mean_latency(),
        utilization: stats.utilization,
        memory_peak: stats.memory_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_workloads::registry::{inference_workload, training_workload};
    use orion_workloads::ModelKind;

    #[test]
    fn solo_run_measures_request_latency() {
        let w = inference_workload(ModelKind::ResNet50);
        let spec = GpuSpec::v100_16gb();
        let stats = solo_run(&w, &spec, 5).unwrap();
        assert_eq!(stats.request_latencies.len(), 5);
        let mean = stats.mean_latency().as_millis_f64();
        // Kernel time ~7 ms plus the 0.2 ms input copy.
        assert!((6.0..9.5).contains(&mean), "mean latency {mean} ms");
        // Back-to-back identical requests: latencies are identical.
        assert_eq!(stats.request_latencies[0], stats.request_latencies[4]);
    }

    #[test]
    fn measured_kernel_durations_match_solo_durations() {
        let w = inference_workload(ModelKind::MobileNetV2);
        let spec = GpuSpec::v100_16gb();
        let stats = solo_run(&w, &spec, 1).unwrap();
        for k in w.kernels() {
            let measured = stats.kernel_durations[&k.kernel_id];
            assert_eq!(measured, k.solo_duration, "kernel {}", k.name);
        }
    }

    #[test]
    fn profile_contains_every_kernel() {
        let w = training_workload(ModelKind::Bert);
        let p = profile_workload(&w, &GpuSpec::v100_16gb()).unwrap();
        assert_eq!(p.kernels.len(), w.kernel_count());
        assert!(p.request_latency > SimTime::ZERO);
        assert_eq!(p.memory_peak, w.memory_footprint);
        let t = p.table();
        for k in w.kernels() {
            assert!(t.get(k.kernel_id).is_some());
        }
    }

    #[test]
    fn training_profile_latency_matches_table4() {
        // Table 4 anchors: ResNet50 ~97 ms/iter solo.
        let w = training_workload(ModelKind::ResNet50);
        let p = profile_workload(&w, &GpuSpec::v100_16gb()).unwrap();
        let ms = p.request_latency.as_millis_f64();
        assert!((85.0..115.0).contains(&ms), "iteration {ms} ms");
    }
}
