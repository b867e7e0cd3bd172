//! LLM continuous-batching serving subsystem (DESIGN.md §17).
//!
//! The paper's §7 discussion flags LLM token generation as the ideal Orion
//! collocation candidate: memory-bound decode underutilizes SMs. This module
//! runs an open-loop request stream through a continuous batcher
//! (Orca/vLLM-style): each request is **prefilled** once (`llm_prefill`,
//! compute-bound) and then joins a **running decode batch** that produces
//! one token per member per step (`llm_batched_decode_step`, memory-bound).
//! Each request's **KV cache is a live allocation** in the device's memory
//! ledger, grown one token per step and freed at completion or eviction, and
//! an **SLO-aware admission controller** gates prefills on KV headroom and
//! per-token deadline risk.
//!
//! **One scheduler for every client.** The batcher is the request source of
//! the high-priority client of a collocation world ([`crate::world`]): each
//! prefill or decode step is one request of that client. A collocated
//! best-effort trainer is an ordinary best-effort client, and any
//! [`PolicyKind`] schedules both.

mod admission;
mod batcher;
mod request;

pub use request::{generate_requests, RequestSpec};

use orion_desim::time::SimTime;
use orion_gpu::error::GpuError;
use orion_gpu::spec::GpuSpec;
use orion_gpu::util::UtilSummary;
use orion_metrics::LatencyRecorder;
use orion_workloads::arrivals::ArrivalProcess;
use orion_workloads::models::llm::{kv_cache_bytes, llm_decode_step, llm_weight_bytes};

use crate::client::ClientSpec;
use crate::policy::{OrionConfig, PolicyKind};
use crate::validate::{ValidateMode, ValidationReport, Validator};
use crate::world::{run_world, RunConfig};
use batcher::Batcher;

/// Latency objectives of the serving system.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Target time-to-first-token. Queued requests are shed once their wait
    /// exceeds a fixed 2 s cap (reported against this).
    pub ttft: SimTime,
    /// Per-token (decode-step service time) objective; the admission
    /// controller's deadline-risk gate refuses joins whose predicted step
    /// time would exceed 0.75 × `per_token`.
    pub per_token: SimTime,
}

impl SloConfig {
    /// Interactive-serving defaults: 300 ms TTFT, 30 ms per token.
    pub fn interactive() -> Self {
        SloConfig {
            ttft: SimTime::from_millis(300),
            per_token: SimTime::from_millis(30),
        }
    }
}

/// The name serving callers have always used for the serving Orion gate.
/// Serving now takes any [`PolicyKind`]; this preset survives so code
/// written against the removed serving-only gate enum (the benchmark
/// harness among it) still reads `ServingPolicy::orion_default()`.
pub struct ServingPolicy;

impl ServingPolicy {
    /// Orion with the serving off-peak slice, [`OrionConfig::serving`].
    pub fn orion_default() -> PolicyKind {
        PolicyKind::Orion(OrionConfig::serving())
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Device to serve on.
    pub spec: GpuSpec,
    /// Simulated duration.
    pub horizon: SimTime,
    /// Leading window excluded from statistics.
    pub warmup: SimTime,
    /// Seed for arrivals and request shapes.
    pub seed: u64,
    /// Open-loop Poisson request rate.
    pub rps: f64,
    /// Inclusive uniform range of prompt lengths (tokens).
    pub prompt_tokens: (u32, u32),
    /// Inclusive uniform range of output lengths (tokens).
    pub output_tokens: (u32, u32),
    /// Hard cap on concurrent requests (running + prefilling).
    pub max_batch: u32,
    /// Latency objectives.
    pub slo: SloConfig,
    /// The policy scheduling the serving client and the best-effort one.
    pub policy: PolicyKind,
    /// Collocated best-effort training client, if any.
    pub be: Option<ClientSpec>,
    /// Policy-state oracle mode, passed to the collocation world. When
    /// enabled, the batcher also checks its own invariants at every step
    /// boundary (KV ledger, queue/batch disjointness, one token per decode
    /// step).
    pub validate: ValidateMode,
}

impl ServingConfig {
    /// Baseline serving configuration on a V100: 12 s horizon, 2 s warmup,
    /// interactive SLOs, no collocation, oracle off.
    pub fn paper_default() -> Self {
        ServingConfig {
            spec: GpuSpec::v100_16gb(),
            horizon: SimTime::from_secs(12),
            warmup: SimTime::from_secs(2),
            seed: 42,
            rps: 1.8,
            prompt_tokens: (64, 320),
            output_tokens: (32, 160),
            max_batch: 8,
            slo: SloConfig::interactive(),
            policy: ServingPolicy::orion_default(),
            be: None,
            validate: ValidateMode::Off,
        }
    }

    /// Abbreviated configuration for tests/`ORION_FAST`: 4 s horizon with a
    /// denser stream of shorter requests so batching, gating, and eviction
    /// all fire within the window. The batch cap is one notch tighter than
    /// the full config because shorter contexts shrink the serial baseline's
    /// step time, which would otherwise let the batched-vs-serial per-token
    /// ratio creep past the documented 1.5x bound. The oracle runs strict.
    pub fn quick_test() -> Self {
        ServingConfig {
            horizon: SimTime::from_secs(4),
            warmup: SimTime::from_millis(800),
            rps: 3.0,
            prompt_tokens: (48, 192),
            output_tokens: (24, 96),
            max_batch: 6,
            validate: ValidateMode::Strict,
            ..Self::paper_default()
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches a collocated best-effort client.
    pub fn with_be(mut self, be: ClientSpec) -> Self {
        self.be = Some(be);
        self
    }

    fn validate(&self) -> Result<(), ServingError> {
        if !(self.rps.is_finite() && self.rps > 0.0) {
            return Err(ServingError::InvalidConfig("rps must be positive and finite"));
        }
        if self.max_batch == 0 {
            return Err(ServingError::InvalidConfig("max_batch must be at least 1"));
        }
        if self.horizon <= self.warmup {
            return Err(ServingError::InvalidConfig("horizon must exceed warmup"));
        }
        if self.prompt_tokens.0 == 0 || self.prompt_tokens.0 > self.prompt_tokens.1 {
            return Err(ServingError::InvalidConfig("prompt token range is empty"));
        }
        if self.output_tokens.0 == 0 || self.output_tokens.0 > self.output_tokens.1 {
            return Err(ServingError::InvalidConfig("output token range is empty"));
        }
        if let PolicyKind::Orion(OrionConfig {
            offpeak_duty: Some(duty),
            ..
        }) = self.policy
        {
            if !(0.0..=1.0).contains(&duty) {
                return Err(ServingError::InvalidConfig("offpeak_duty outside [0, 1]"));
            }
        }
        if self.be.as_ref().is_some_and(|be| !be.arrivals.is_closed_loop()) {
            return Err(ServingError::InvalidConfig(
                "best-effort client must be closed-loop",
            ));
        }
        Ok(())
    }
}

/// Typed failures of the serving subsystem. Admission and eviction never
/// panic: impossible configurations surface here, and per-request pressure
/// is handled by shed/evict counters instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// A configuration parameter is out of range.
    InvalidConfig(&'static str),
    /// The model weights (plus any collocated client's footprint) do not fit
    /// on the device, so the system cannot start.
    ModelDoesNotFit {
        /// Static bytes required before any KV cache.
        needed: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// The post-static KV budget cannot hold even the smallest possible
    /// request, so no request could ever be admitted.
    KvExhausted {
        /// Bytes the smallest request needs (prompt + first token).
        needed: u64,
        /// KV bytes actually available.
        available: u64,
    },
    /// The underlying device simulation failed.
    Gpu(GpuError),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::InvalidConfig(what) => write!(f, "invalid serving config: {what}"),
            ServingError::ModelDoesNotFit { needed, capacity } => write!(
                f,
                "model state ({needed} B) does not fit device capacity ({capacity} B)"
            ),
            ServingError::KvExhausted { needed, available } => write!(
                f,
                "KV budget exhausted: smallest request needs {needed} B, {available} B available"
            ),
            ServingError::Gpu(e) => write!(f, "gpu error: {e}"),
        }
    }
}

impl std::error::Error for ServingError {}

impl From<GpuError> for ServingError {
    fn from(e: GpuError) -> Self {
        ServingError::Gpu(e)
    }
}

/// Outcome of a serving run. Latency statistics exclude the warmup window.
#[derive(Debug, Default)]
pub struct ServingReport {
    /// Policy label.
    pub policy: &'static str,
    /// Requests that arrived within the horizon.
    pub arrived: u64,
    /// Requests admitted (KV allocated, prefill scheduled) at least once.
    pub admitted: u64,
    /// Requests that produced their full output.
    pub completed: u64,
    /// Requests shed because their queue wait exceeded the admission cap.
    pub shed_queue: u64,
    /// Requests shed because their minimal KV footprint exceeds the budget.
    pub shed_oversized: u64,
    /// Requests dropped after exhausting their eviction/retry budget.
    pub dropped_evicted: u64,
    /// KV evictions performed under memory pressure.
    pub evictions: u64,
    /// Admission deferrals: projected KV above the watermark.
    pub deferred_kv: u64,
    /// Admission deferrals: predicted step time above the SLO margin.
    pub deferred_slo: u64,
    /// Admission deferrals: batch already at `max_batch`.
    pub deferred_batch: u64,
    /// Requests that joined the decode batch.
    pub joins: u64,
    /// Joins that happened while other requests were already decoding.
    pub joins_mid: u64,
    /// Requests that left the batch on completion.
    pub leaves: u64,
    /// Leaves that happened while other requests kept decoding.
    pub leaves_mid: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Prefill passes executed.
    pub prefill_steps: u64,
    /// Largest decode batch observed.
    pub peak_batch: u32,
    /// Mean decode batch size over all decode steps.
    pub mean_batch: f64,
    /// Tokens generated within the measurement window.
    pub tokens_generated: u64,
    /// Tokens per second over the measurement window.
    pub tokens_per_sec: f64,
    /// Time to first token (arrival → end of prefill).
    pub ttft: LatencyRecorder,
    /// Decode-step service time per generated token. This isolates GPU
    /// interference: scheduling gaps (a prefill inserted between steps)
    /// land in `itl` and TTFT instead.
    pub per_token: LatencyRecorder,
    /// Inter-token gap as a reader would see it (includes prefill
    /// insertions between a request's tokens).
    pub itl: LatencyRecorder,
    /// End-to-end request latency (arrival → last token).
    pub e2e: LatencyRecorder,
    /// Peak KV bytes live at once.
    pub kv_peak_bytes: u64,
    /// KV budget (device capacity minus static allocations).
    pub kv_budget_bytes: u64,
    /// Ledger high-water mark (static + KV) — never exceeds capacity.
    pub ledger_high_water: u64,
    /// Device capacity.
    pub ledger_capacity: u64,
    /// Best-effort iterations completed in the window.
    pub be_completed: u64,
    /// Best-effort iterations per second over the window.
    pub be_tput: f64,
    /// Device utilization averages.
    pub utilization: UtilSummary,
    /// Measurement window length.
    pub window: SimTime,
    /// Oracle report (when [`ServingConfig`]'s `validate` mode enabled it): the
    /// collocation world's policy checks plus the batcher's step-boundary
    /// checks.
    pub validation: Option<ValidationReport>,
}

/// Runs one serving experiment.
///
/// # Errors
///
/// [`ServingError::InvalidConfig`] for out-of-range parameters,
/// [`ServingError::ModelDoesNotFit`] when weights + collocated footprints
/// exceed device capacity, [`ServingError::KvExhausted`] when the KV budget
/// cannot hold even the smallest request, and [`ServingError::Gpu`] for
/// device-simulation failures.
pub fn run_serving(cfg: &ServingConfig) -> Result<ServingReport, ServingError> {
    cfg.validate()?;
    let capacity = cfg.spec.memory_capacity;
    let static_bytes =
        llm_weight_bytes() + cfg.be.as_ref().map_or(0, |be| be.workload.memory_footprint);
    if static_bytes > capacity {
        return Err(ServingError::ModelDoesNotFit {
            needed: static_bytes,
            capacity,
        });
    }
    // The KV budget is whatever the static allocations leave behind.
    let min_needed = kv_cache_bytes(cfg.prompt_tokens.0 + 1);
    if min_needed > capacity - static_bytes {
        return Err(ServingError::KvExhausted {
            needed: min_needed,
            available: capacity - static_bytes,
        });
    }
    let specs = generate_requests(cfg);
    let mut batcher = Batcher::new(cfg, &specs, static_bytes);
    let arrivals = ArrivalProcess::Trace(specs.iter().map(|s| s.arrival).collect());
    let hp = ClientSpec::high_priority(nominal_step(), arrivals);
    let clients: Vec<ClientSpec> = std::iter::once(hp).chain(cfg.be.clone()).collect();
    let rc = RunConfig {
        spec: cfg.spec.clone(),
        horizon: cfg.horizon,
        warmup: cfg.warmup,
        seed: cfg.seed,
        validate: cfg.validate,
        ..RunConfig::paper_default()
    };
    let profiles = vec![None; clients.len()];
    let run = run_world(cfg.policy.clone(), clients, profiles, &rc, Some(&mut batcher))?;
    if let Some(e) = batcher.fatal.take() {
        return Err(e.into());
    }
    let window = cfg.horizon - cfg.warmup;
    let window_secs = window.as_secs_f64();
    let mut r = std::mem::take(&mut batcher.report);
    r.policy = cfg.policy.label();
    if r.decode_steps > 0 {
        r.mean_batch = batcher.batch_sum as f64 / r.decode_steps as f64;
    }
    r.tokens_per_sec = r.tokens_generated as f64 / window_secs;
    r.be_completed = run.clients.get(1).map_or(0, |c| c.completed);
    r.be_tput = r.be_completed as f64 / window_secs;
    r.utilization = run.utilization;
    r.window = window;
    r.validation = run.validation.map(|mut v| {
        let own = batcher.oracle.take().map(Validator::into_report);
        v.violations.extend(own.into_iter().flat_map(|o| o.violations));
        v
    });
    Ok(r)
}

/// The serving client's nominal request: the model's batch-1 decode step,
/// charged the weights only (KV lives in per-request ledger allocations).
/// Its offline profile is the high-priority solo request latency that
/// Orion's `DUR_THRESHOLD` derives from; the batcher decides what each
/// actual request runs.
fn nominal_step() -> orion_workloads::Workload {
    let mut w = llm_decode_step();
    w.memory_footprint = llm_weight_bytes();
    w
}

// The bench runner fans serving cells across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<ServingConfig>();
    assert_sync::<ServingConfig>();
    assert_send::<ServingReport>();
    assert_send::<ServingError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_config_variants_are_exact() {
        let mut cfg = ServingConfig::quick_test();
        cfg.rps = 0.0;
        assert!(matches!(
            run_serving(&cfg),
            Err(ServingError::InvalidConfig("rps must be positive and finite"))
        ));

        let mut cfg = ServingConfig::quick_test();
        cfg.max_batch = 0;
        assert!(matches!(
            run_serving(&cfg),
            Err(ServingError::InvalidConfig("max_batch must be at least 1"))
        ));

        let mut cfg = ServingConfig::quick_test();
        cfg.warmup = cfg.horizon;
        assert!(matches!(
            run_serving(&cfg),
            Err(ServingError::InvalidConfig("horizon must exceed warmup"))
        ));

        let mut cfg = ServingConfig::quick_test();
        cfg.prompt_tokens = (0, 8);
        assert!(matches!(
            run_serving(&cfg),
            Err(ServingError::InvalidConfig("prompt token range is empty"))
        ));
    }

    #[test]
    fn model_does_not_fit_is_exact() {
        let mut cfg = ServingConfig::quick_test();
        cfg.spec.memory_capacity = 1 << 30; // 1 GiB < 6.75 GiB of weights
        match run_serving(&cfg) {
            Err(ServingError::ModelDoesNotFit { needed, capacity }) => {
                assert_eq!(capacity, 1 << 30);
                assert!(needed > capacity);
            }
            other => panic!("expected ModelDoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn kv_exhausted_is_exact() {
        use orion_workloads::models::llm::{kv_cache_bytes, llm_weight_bytes};
        let mut cfg = ServingConfig::quick_test();
        // Weights fit with a sliver of KV headroom too small for the
        // smallest admissible request (prompt_min + 1 tokens).
        cfg.spec.memory_capacity =
            llm_weight_bytes() + kv_cache_bytes(cfg.prompt_tokens.0 + 1) - 1;
        match run_serving(&cfg) {
            Err(ServingError::KvExhausted { needed, available }) => {
                assert_eq!(needed, kv_cache_bytes(cfg.prompt_tokens.0 + 1));
                assert_eq!(available, needed - 1);
            }
            other => panic!("expected KvExhausted, got {other:?}"),
        }
    }

    #[test]
    fn serving_alone_is_deterministic_and_oracle_clean() {
        // Batching, bookkeeping and KV-pressure assertions on this config and
        // on its constrained variant are the `batched` and `constrained`
        // cells of the bench crate's `smoke_llm_serving`.
        let cfg = ServingConfig::quick_test();
        let mut r = run_serving(&cfg).expect("serving run");
        assert_eq!(r.arrived as usize, generate_requests(&cfg).len());
        let v = r.validation.take().expect("quick_test arms the oracle");
        assert!(v.is_clean() && v.rounds > 0, "{v:?}");
        let again = run_serving(&cfg).expect("second run");
        assert_eq!(r.per_token.samples(), again.per_token.samples());
        assert_eq!(r.ttft.samples(), again.ttft.samples());
        assert_eq!(r.evictions, again.evictions);
    }

    #[test]
    fn trainer_share_by_policy() {
        // Temporal starves the trainer; Listing 1 as published (SM check
        // on) blocks nearly every trainer kernel beside a serving step; the
        // off-peak slice of the serving preset is what lets it share them.
        use orion_workloads::{registry::training_workload, ModelKind};
        let be = ClientSpec::best_effort(
            training_workload(ModelKind::ResNet50),
            ArrivalProcess::ClosedLoop,
        );
        let base = ServingConfig::quick_test().with_be(be);
        let be_done = |p: PolicyKind| {
            run_serving(&base.clone().with_policy(p)).expect("serving run").be_completed
        };
        let sliced = be_done(ServingPolicy::orion_default());
        let plain = be_done(PolicyKind::orion_default());
        let temporal = be_done(PolicyKind::Temporal);
        assert!(temporal <= sliced, "temporal BE {temporal} > orion BE {sliced}");
        assert!(2 * plain < sliced, "plain Orion BE {plain} vs sliced {sliced}");
    }

    #[test]
    fn gpu_error_conversion_and_display() {
        let e: ServingError = GpuError::UnknownAllocation(7).into();
        assert!(matches!(e, ServingError::Gpu(GpuError::UnknownAllocation(7))));
        assert!(e.to_string().contains("gpu error"));
        let e = ServingError::KvExhausted {
            needed: 10,
            available: 3,
        };
        assert!(e.to_string().contains("10"));
    }
}
