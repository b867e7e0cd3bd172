//! Multi-GPU cluster simulation (paper §7 "cluster manager co-design").
//!
//! Orion is a per-GPU scheduler; the paper's discussion proposes a cluster
//! manager that uses the offline compute/memory profiles to place jobs with
//! complementary demands on the same GPU. [`FleetSim`] closes that loop: a
//! fleet of GPUs driven by an arrival/departure trace ([`FleetTrace`]), with
//! a control-plane event loop: a job arrives → it is placed on the best
//! complementary GPU with capacity (or queues); a job departs → its slot is
//! freed; optionally, when a GPU's learned profiles say a pairing soured, the
//! worst-matched best-effort resident migrates elsewhere. A static cluster —
//! a fixed job set on a fixed GPU budget — is the degenerate case: a
//! [`FleetTrace::fixed`] trace run for one epoch.
//!
//! The fleet runs in fixed-length *epochs*. Arrivals, departures, placement,
//! and migration are applied at epoch boundaries; within an epoch every
//! occupied GPU is an independent collocation episode (the paper runs a
//! separate Orion instance per device, §5), so a batch of episodes can be
//! sharded across the deterministic runner in `orion-bench`. Engine state
//! resets at epoch boundaries — a deliberate simplification that buys
//! embarrassingly-parallel epochs; latency/throughput statistics aggregate
//! across a job's resident epochs. Episode seeds are splitmix-derived from
//! `(base seed, gpu, epoch)`, so fleet results are a pure function of the
//! trace and configuration: byte-identical at any thread count.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use orion_desim::rng::{cell_seed, DetRng};
use orion_desim::time::SimTime;
use orion_gpu::error::GpuError;
use orion_metrics::LatencyRecorder;
use orion_profiler::{profile_workload, ProfileTable};
use orion_workloads::arrivals::{ArrivalProcess, PaperRates};
use orion_workloads::models::llm::llm_decode_step;
use orion_workloads::registry::{inference_workload, training_workload};
use orion_workloads::ModelKind;

use crate::client::{ClientPriority, ClientSpec};
use crate::online::OnlineConfig;
use crate::placement::{
    demand_complementarity, demand_from_profiles, demand_vector, FleetPlacer, PackJob,
};
use crate::policy::PolicyKind;
use crate::supervisor::{FaultConfig, RobustnessReport, SupervisorConfig};
use crate::world::{run_collocation_with_profiles, run_dedicated, RunConfig, RunResult};
use orion_gpu::fault::{unit_roll, FaultRates};

/// Cluster-level failures. The per-GPU engine's [`GpuError`] variants encode
/// device conditions (allocations, streams, kernels); a failed *reference
/// run* or a job shed under degraded capacity are control-plane conditions
/// and get their own variants instead of being smuggled through device error
/// fields. Jobs that never fit are not errors: [`FleetReport`] counts them
/// in `never_placed` and `oversized_rejected`.
#[derive(Debug)]
pub enum ClusterError {
    /// A job's dedicated-baseline reference run failed; its normalized
    /// throughput would be meaningless (reported instead of a silent 0.0).
    BaselineFailed {
        /// Index of the offending job in submission order.
        job: usize,
        /// The underlying device error.
        source: GpuError,
    },
    /// A placed collocation failed to run.
    Gpu(GpuError),
    /// Degraded-capacity rejection: the job exhausted its evacuation retry
    /// budget while the fleet was short on healthy devices, and was shed by
    /// the control plane. High-priority jobs are only ever dropped through
    /// this explicit, reported path — never a panic or a masked
    /// `OutOfMemory`.
    CapacityExhausted {
        /// Job id (index into the fleet trace).
        job: usize,
        /// Epoch at which the job was shed.
        epoch: usize,
        /// Healthy (placement-accepting) GPUs at that moment.
        live_gpus: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BaselineFailed { job, source } => {
                write!(f, "dedicated baseline for job {job} failed: {source}")
            }
            ClusterError::Gpu(e) => write!(f, "collocation run failed: {e}"),
            ClusterError::CapacityExhausted { job, epoch, live_gpus } => write!(
                f,
                "job {job} shed at epoch {epoch}: evacuation budget exhausted \
                 with {live_gpus} live GPUs"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::BaselineFailed { source, .. } | ClusterError::Gpu(source) => Some(source),
            _ => None,
        }
    }
}

impl From<GpuError> for ClusterError {
    fn from(e: GpuError) -> Self {
        ClusterError::Gpu(e)
    }
}

// ---------------------------------------------------------------------------
// Fleet-scale simulation: arrival/departure churn over hundreds of GPUs.
// ---------------------------------------------------------------------------

/// Domain-separation tag for the trace synthesizer's per-job seeds.
const FLEET_TRACE_TAG: u64 = 0xf1ee_0000_0000_0001;
/// Domain-separation tag for dedicated-reference run seeds.
const FLEET_DED_TAG: u64 = 0xf1ee_0000_0000_0002;
/// Domain-separation tag for per-(gpu, epoch) episode seeds.
const FLEET_EPISODE_TAG: u64 = 0xf1ee_0000_0000_0003;
/// Domain-separation tag for per-(gpu, epoch) device-fate rolls.
const FLEET_FAULT_TAG: u64 = 0xf1ee_0000_0000_0004;

/// What the fault plan decrees for one `(gpu, epoch)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuFate {
    /// Device operates normally this epoch.
    Healthy,
    /// Device-fault injection is armed for this epoch's episode: kernels on
    /// this GPU roll against [`FleetFaultPlan::episode_rates`] (the existing
    /// `gpu-sim` sticky-fault machinery), and the control plane will triage
    /// the outcome.
    Transient,
    /// Device dies at this epoch boundary and never returns. Residents are
    /// evacuated; fleet capacity shrinks.
    Dead,
}

/// Deterministic fleet-level fault injection: a pure function from
/// `(plan seed, gpu, epoch)` to a [`GpuFate`], mirroring how
/// [`FleetTrace::synthesize`] derives per-job cells. Fate rolls share the
/// splitmix construction the in-episode injector uses ([`unit_roll`]), so a
/// chaos fleet run is as replayable as a fault-free one: byte-identical at
/// any thread count.
#[derive(Debug, Clone)]
pub struct FleetFaultPlan {
    /// Plan seed (independent of trace and run seeds).
    pub seed: u64,
    /// P(transient fault epoch) per (alive gpu, epoch) cell.
    pub transient_rate: f64,
    /// P(permanent death) per (alive gpu, epoch) cell, rolled before
    /// `transient_rate` on the same draw (mutually exclusive).
    pub dead_rate: f64,
    /// In-episode device-fault rates armed on transient-fated GPUs.
    pub episode_rates: FaultRates,
    /// Supervisor tuning for chaos episodes (retry/backoff inside the
    /// episode; see [`crate::supervisor`]).
    pub supervisor: SupervisorConfig,
    /// Evacuations a single job survives before the control plane sheds it
    /// (the fleet-level retry budget).
    pub max_evacuations: u32,
    /// Cap on a flapping GPU's quarantine length, in epochs (the backoff
    /// doubles per strike up to this).
    pub quarantine_max_epochs: u64,
    /// Clean episodes a reinstated GPU must serve on probation before its
    /// strike count decays.
    pub probation_epochs: u64,
}

impl FleetFaultPlan {
    /// A plan with moderate chaos: ~2% of (gpu, epoch) cells transiently
    /// faulted, ~0.5% permanently dead, sticky kernel faults likely within
    /// a faulted episode, and a 4-evacuation job budget.
    pub fn new(seed: u64) -> Self {
        FleetFaultPlan {
            seed,
            transient_rate: 0.02,
            dead_rate: 0.005,
            episode_rates: FaultRates {
                kernel_fault: 0.02,
                ..FaultRates::default()
            },
            supervisor: SupervisorConfig::default(),
            max_evacuations: 4,
            quarantine_max_epochs: 4,
            probation_epochs: 2,
        }
    }

    /// The fate of one `(gpu, epoch)` cell — a pure function of the plan.
    pub fn fate(&self, gpu: usize, epoch: usize) -> GpuFate {
        let lane = cell_seed(cell_seed(self.seed, FLEET_FAULT_TAG), gpu as u64);
        let u = unit_roll(lane, epoch as u64);
        if u < self.dead_rate {
            GpuFate::Dead
        } else if u < self.dead_rate + self.transient_rate {
            GpuFate::Transient
        } else {
            GpuFate::Healthy
        }
    }

    /// The [`FaultConfig`] armed on a transient-fated episode.
    pub fn episode_faults(&self) -> FaultConfig {
        let mut fc = FaultConfig::none();
        fc.rates = self.episode_rates;
        fc.supervisor = self.supervisor.clone();
        fc
    }
}

/// One job in a fleet trace: a client plus its lifetime.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// The client (workload + arrivals + priority).
    pub client: ClientSpec,
    /// Submission time.
    pub arrive: SimTime,
    /// Completion/cancellation time (open interval end: the job is gone at
    /// and after this instant).
    pub depart: SimTime,
}

/// An open-loop arrival/departure trace driving a fleet.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Jobs in submission order (ids are indices into this vector).
    pub jobs: Vec<FleetJob>,
}

/// Knobs for [`FleetTrace::synthesize`].
#[derive(Debug, Clone)]
pub struct FleetTraceConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// Trace horizon: arrivals and departures land in `[0, horizon]`.
    pub horizon: SimTime,
    /// Fraction of jobs that are high-priority inference services.
    pub hp_fraction: f64,
    /// Mean of the exponential job lifetime.
    pub mean_lifetime: SimTime,
    /// Lifetime floor (avoids zero-epoch jobs dominating the trace).
    pub min_lifetime: SimTime,
    /// Arrivals land uniformly in `[0, horizon * arrival_window]`.
    pub arrival_window: f64,
    /// Trace seed (independent of the run seeds).
    pub seed: u64,
}

impl FleetTraceConfig {
    /// A trace of `jobs` jobs over `horizon` with the default mix: 40%
    /// high-priority inference (Poisson at the paper's Table-3 rates), 60%
    /// best-effort training/decode, lifetimes exponential around a third of
    /// the horizon.
    pub fn new(jobs: usize, horizon: SimTime) -> Self {
        FleetTraceConfig {
            jobs,
            horizon,
            hp_fraction: 0.4,
            mean_lifetime: horizon.mul_f64(1.0 / 3.0),
            min_lifetime: horizon.mul_f64(0.125),
            arrival_window: 0.6,
            seed: 42,
        }
    }
}

/// High-priority service models sampled by the synthesizer.
const HP_MODELS: [ModelKind; 4] = [
    ModelKind::ResNet50,
    ModelKind::MobileNetV2,
    ModelKind::Bert,
    ModelKind::ResNet101,
];

impl FleetTrace {
    /// Synthesizes an open-loop churn trace. Every job is derived from its
    /// own splitmix cell of `(seed, job index)`, so the trace is a pure
    /// function of the config — independent of thread count or wall clock.
    pub fn synthesize(cfg: &FleetTraceConfig) -> FleetTrace {
        let base = cell_seed(cfg.seed, FLEET_TRACE_TAG);
        let jobs = (0..cfg.jobs)
            .map(|i| {
                let mut rng = DetRng::new(cell_seed(base, i as u64));
                let hp = rng.next_f64() < cfg.hp_fraction;
                let client = if hp {
                    let model = HP_MODELS[rng.uniform_u64(HP_MODELS.len() as u64) as usize];
                    ClientSpec::high_priority(
                        inference_workload(model),
                        ArrivalProcess::Poisson {
                            rps: PaperRates::inf_train_poisson(model),
                        },
                    )
                } else {
                    match rng.uniform_u64(3) {
                        0 => ClientSpec::best_effort(
                            training_workload(ModelKind::ResNet50),
                            ArrivalProcess::ClosedLoop,
                        ),
                        1 => ClientSpec::best_effort(
                            training_workload(ModelKind::MobileNetV2),
                            ArrivalProcess::ClosedLoop,
                        ),
                        _ => ClientSpec::best_effort(llm_decode_step(), ArrivalProcess::ClosedLoop),
                    }
                };
                let arrive = cfg.horizon.mul_f64(cfg.arrival_window * rng.next_f64());
                let mean = cfg.mean_lifetime.as_secs_f64().max(1e-9);
                let mut life = SimTime::from_secs_f64(rng.exponential(1.0 / mean));
                if life < cfg.min_lifetime {
                    life = cfg.min_lifetime;
                }
                let depart = (arrive + life).min(cfg.horizon);
                FleetJob {
                    client,
                    arrive,
                    depart,
                }
            })
            .collect();
        FleetTrace { jobs }
    }

    /// A static job set: every client arrives at 0 and departs at
    /// `horizon`. Run for one epoch of length `horizon`, this is a fixed
    /// cluster — one placement, one collocation episode per occupied GPU.
    pub fn fixed(clients: Vec<ClientSpec>, horizon: SimTime) -> FleetTrace {
        let jobs = clients
            .into_iter()
            .map(|client| FleetJob {
                client,
                arrive: SimTime::ZERO,
                depart: horizon,
            })
            .collect();
        FleetTrace { jobs }
    }

    /// Peak number of concurrently-live jobs in the raw trace: the size a
    /// dedicated (one GPU per job) fleet would need.
    pub fn peak_concurrent(&self) -> usize {
        let mut events: Vec<(SimTime, i64)> = Vec::with_capacity(self.jobs.len() * 2);
        for j in &self.jobs {
            if j.depart > j.arrive {
                events.push((j.arrive, 1));
                events.push((j.depart, -1));
            }
        }
        // Departures apply before arrivals at the same instant.
        events.sort_by_key(|&(t, d)| (t, d));
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            live += d;
            peak = peak.max(live);
        }
        peak.max(0) as usize
    }
}

/// Fleet control-plane configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of identical GPUs in the fleet.
    pub gpus: usize,
    /// Epoch length: the control plane acts at multiples of this.
    pub epoch: SimTime,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Scheduling policy on every GPU.
    pub policy: PolicyKind,
    /// Per-episode run template. `horizon`/`warmup`/`seed`/`online` are
    /// overridden per (gpu, epoch); `spec` sets the device and the memory
    /// ledger the placer packs against.
    pub rc: RunConfig,
    /// Per-GPU cap on residents (one high-priority plus best-effort).
    pub max_jobs_per_gpu: usize,
    /// Learn profiles online (cold start + admission ladder) and feed
    /// re-placement from the learned tables; offline tables otherwise.
    pub online: bool,
    /// Migrate the worst-matched best-effort resident off a GPU whose
    /// high-priority job underperformed its threshold last epoch.
    pub migration: bool,
    /// Migration trigger: HP normalized throughput below this.
    pub migrate_threshold: f64,
    /// HP job SLO: aggregated p99 within this factor of dedicated p99.
    pub slo_latency_factor: f64,
    /// BE job SLO: normalized throughput at least this.
    pub slo_tput_factor: f64,
    /// Fleet-level fault injection. `None` (the default) keeps the fleet
    /// fault-free: no health state machine is constructed, no fate rolls
    /// happen, and the run is byte-identical to pre-fault-plan builds.
    pub faults: Option<FleetFaultPlan>,
}

impl FleetConfig {
    /// A fleet of `gpus` V100s over `epochs` one-second epochs with the
    /// default control-plane tuning (offline profiles, no migration).
    pub fn new(gpus: usize, epochs: usize) -> Self {
        let mut rc = RunConfig::paper_default();
        rc.validate = crate::validate::ValidateMode::Off;
        FleetConfig {
            gpus,
            epoch: SimTime::from_secs(1),
            epochs,
            policy: PolicyKind::orion_default(),
            rc,
            max_jobs_per_gpu: 3,
            online: false,
            migration: false,
            migrate_threshold: 0.55,
            slo_latency_factor: 2.0,
            slo_tput_factor: 0.25,
            faults: None,
        }
    }

    /// The trace horizon implied by the epoch grid.
    pub fn horizon(&self) -> SimTime {
        self.epoch * self.epochs as u64
    }

    /// True when `client` fits on one device alone. Jobs that do not are
    /// rejected at admission and are never profiled or referenced.
    fn fits_device(&self, client: &ClientSpec) -> bool {
        client.workload.memory_footprint <= self.rc.spec.memory_capacity
    }

    fn episode_rc(&self, gpu: usize, epoch: usize) -> RunConfig {
        let mut rc = self.rc.clone();
        rc.horizon = self.epoch;
        rc.warmup = self.epoch / 5;
        rc.seed = cell_seed(
            cell_seed(cell_seed(self.rc.seed, FLEET_EPISODE_TAG), gpu as u64),
            epoch as u64,
        );
        rc.online = if self.online {
            OnlineConfig::learning()
        } else {
            OnlineConfig::disabled()
        };
        rc
    }
}

/// Dedicated-GPU reference for one workload label: the normalization and
/// SLO anchor for every job running that workload.
#[derive(Debug, Clone, Copy)]
pub struct DedicatedRef {
    /// Requests/iterations per second alone on a device.
    pub throughput: f64,
    /// p99 latency alone on a device.
    pub p99: SimTime,
}

/// The dedicated reference runs a fleet needs: one per distinct workload
/// label, sorted by label, each with its own derived seed. Both the serial
/// driver and the sharded bench driver map [`run_dedicated`] over exactly
/// this list, so their reference values are identical. Jobs larger than a
/// device are skipped: admission rejects them, so they need no reference.
pub fn dedicated_ref_inputs(
    trace: &FleetTrace,
    cfg: &FleetConfig,
) -> Vec<(String, ClientSpec, RunConfig)> {
    let mut by_label: BTreeMap<String, ClientSpec> = BTreeMap::new();
    for j in trace.jobs.iter().filter(|j| cfg.fits_device(&j.client)) {
        by_label
            .entry(j.client.workload.label())
            .or_insert_with(|| j.client.clone());
    }
    by_label
        .into_iter()
        .enumerate()
        .map(|(i, (label, client))| {
            let mut rc = cfg.rc.clone();
            rc.horizon = cfg.epoch;
            rc.warmup = cfg.epoch / 5;
            rc.seed = cell_seed(cell_seed(cfg.rc.seed, FLEET_DED_TAG), i as u64);
            rc.online = OnlineConfig::disabled();
            (label, client, rc)
        })
        .collect()
}

/// Folds reference runs — one per [`dedicated_ref_inputs`] entry, in that
/// order — into the per-label map [`FleetSim::new`] takes. The serial driver
/// and the sharded bench driver both collect through here.
///
/// # Errors
///
/// [`ClusterError::BaselineFailed`] for the first failed run, naming the
/// trace index of the first job that carries its label.
pub fn collect_dedicated_refs(
    trace: &FleetTrace,
    runs: impl IntoIterator<Item = (String, Result<RunResult, GpuError>)>,
) -> Result<BTreeMap<String, DedicatedRef>, ClusterError> {
    let mut refs = BTreeMap::new();
    for (label, res) in runs {
        let mut r = res.map_err(|source| ClusterError::BaselineFailed {
            job: trace
                .jobs
                .iter()
                .position(|j| j.client.workload.label() == label)
                .unwrap_or_default(),
            source,
        })?;
        refs.insert(
            label,
            DedicatedRef {
                throughput: r.clients[0].throughput,
                p99: r.clients[0].latency.p99(),
            },
        );
    }
    Ok(refs)
}

/// Runs the dedicated references serially (the bench driver shards the same
/// inputs across the runner instead).
///
/// # Errors
///
/// [`ClusterError::BaselineFailed`] when a reference run fails.
pub fn dedicated_refs_serial(
    trace: &FleetTrace,
    cfg: &FleetConfig,
) -> Result<BTreeMap<String, DedicatedRef>, ClusterError> {
    let runs = dedicated_ref_inputs(trace, cfg)
        .into_iter()
        .map(|(label, client, rc)| (label, run_dedicated(client, &rc)));
    collect_dedicated_refs(trace, runs)
}

/// One (gpu, epoch) collocation episode: everything needed to run it on any
/// worker thread. Produced by [`FleetSim::next_epoch`]; results go back via
/// [`FleetSim::absorb`].
#[derive(Debug, Clone)]
pub struct EpisodeSpec {
    /// Fleet GPU index.
    pub gpu: usize,
    /// Epoch index.
    pub epoch: usize,
    /// Resident job ids, in placement order (parallel to `clients`).
    pub jobs: Vec<usize>,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Client specs, parallel to `jobs`.
    pub clients: Vec<ClientSpec>,
    /// Pre-built profile tables, parallel to `jobs` (offline memoized or
    /// online carried-over).
    pub profiles: Vec<Option<ProfileTable>>,
    /// Fully-derived run config (horizon = epoch, per-episode seed).
    pub rc: RunConfig,
}

impl EpisodeSpec {
    /// Runs the episode.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`run_collocation_with_profiles`] error.
    pub fn run(&self) -> Result<RunResult, GpuError> {
        run_collocation_with_profiles(
            self.policy.clone(),
            self.clients.clone(),
            self.profiles.clone(),
            &self.rc,
        )
    }
}

#[derive(Debug, Default)]
struct JobStats {
    latency: LatencyRecorder,
    completed: u64,
    resident_epochs: u64,
    moves: u64,
    ever_placed: bool,
}

/// Per-GPU health in the fleet failure domain (see DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GpuHealth {
    /// In service, full trust.
    Healthy,
    /// Offline until the named epoch boundary (exponential backoff in
    /// strikes); comes back on probation.
    Quarantined { until: usize },
    /// Back in service, but `clean_left` more clean episodes are needed
    /// before a strike decays. A fault during probation escalates.
    Probation { clean_left: u64 },
    /// Permanently out; capacity shrank.
    Dead,
}

/// Fleet-level fault state: only constructed when [`FleetConfig::faults`]
/// is set, so fault-free fleets take zero new branches through placement.
#[derive(Debug)]
struct FleetHealth {
    plan: FleetFaultPlan,
    /// Per-GPU health state.
    gpu: Vec<GpuHealth>,
    /// Per-GPU fault strikes, driving exponential quarantine backoff.
    strikes: Vec<u32>,
    /// Jobs evacuated off failed devices awaiting HP-first re-placement.
    evacuees: Vec<usize>,
    /// Epoch of each job's outstanding evacuation (for epochs-to-recovery).
    evacuated_at: Vec<Option<usize>>,
    /// Evacuations each job has survived (the fleet retry budget).
    evac_count: Vec<u32>,
    /// Jobs shed by the control plane (budget exhausted).
    lost: Vec<bool>,
}

/// One control-plane job rejection under degraded capacity, with its
/// [`ClusterError::CapacityExhausted`] context preformatted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRejection {
    /// Job id (index into the trace).
    pub job: usize,
    /// The job was high-priority.
    pub hp: bool,
    /// Epoch at which it was shed.
    pub epoch: usize,
    /// Human-readable `ClusterError` context.
    pub reason: String,
}

/// Fleet-level fault-and-recovery roll-up. For a fault-free fleet run every
/// field stays at its default ([`FleetRobustnessReport::any`] is false) and
/// the bench JSONL omits the block entirely, keeping fault-free output
/// byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetRobustnessReport {
    /// Sum of every episode's in-run [`RobustnessReport`] counters. This is
    /// populated for *any* faulted episode — including episode-level fault
    /// configs with no fleet plan — so per-GPU recovery work is never
    /// dropped at the fleet boundary.
    pub episodes: RobustnessReport,
    /// Episodes handed out with device-fault injection armed.
    pub chaos_episodes: u64,
    /// GPUs that died permanently.
    pub gpus_dead: u64,
    /// Quarantine events (a GPU can contribute several).
    pub quarantines: u64,
    /// Quarantined GPUs returned to service on probation.
    pub reinstated: u64,
    /// Job evacuations off dead/faulted devices.
    pub evacuations: u64,
    /// Evacuations that found a new home.
    pub evacuations_recovered: u64,
    /// Worst epochs-from-evacuation-to-re-placement over all recoveries
    /// (0 = re-placed at the very next boundary).
    pub max_epochs_to_recovery: u64,
    /// Best-effort residents preempted to make room for a high-priority job
    /// under degraded capacity (shed-BE-first; preempted jobs requeue).
    pub be_preempted: u64,
    /// Best-effort jobs shed outright (evacuation budget exhausted).
    pub be_lost: u64,
    /// High-priority jobs shed — only via explicit
    /// [`ClusterError::CapacityExhausted`] reporting, never a panic.
    pub hp_rejected: u64,
    /// Mean fraction of the fleet accepting placements across epoch
    /// boundaries (1.0 = no capacity ever lost).
    pub availability: f64,
    /// Shed-job details, capped at [`MAX_FLEET_REJECTIONS`].
    pub rejections: Vec<FleetRejection>,
}

impl FleetRobustnessReport {
    /// True when anything fault-related happened at the fleet level.
    pub fn any(&self) -> bool {
        *self != FleetRobustnessReport::default()
    }
}

/// Cap on stored [`FleetRejection`] records (counters keep exact totals).
pub const MAX_FLEET_REJECTIONS: usize = 64;
/// Cap on stored episode-failure context strings.
const MAX_EPISODE_FAILURES: usize = 16;

/// The fleet control plane: a pull-driven state machine. Call
/// [`FleetSim::next_epoch`] for the next batch of independent episodes, run
/// them (serially or sharded across the bench runner — results must come
/// back in the same order they were handed out, which `Runner::map`
/// guarantees), feed them to [`FleetSim::absorb`], repeat until
/// `next_epoch` returns `None`, then take [`FleetSim::into_report`].
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
    trace: FleetTrace,
    dedicated: BTreeMap<String, DedicatedRef>,
    offline_tables: BTreeMap<String, ProfileTable>,
    placer: FleetPlacer,
    epoch: usize,
    /// Job ids sorted by (arrive, id); `next_arrival` indexes into it.
    arrivals_order: Vec<usize>,
    next_arrival: usize,
    /// FIFO of arrived-but-unplaced job ids.
    pending: Vec<usize>,
    stats: Vec<JobStats>,
    /// Online-learned table per job, carried across epochs.
    learned: Vec<Option<ProfileTable>>,
    /// Last epoch's measured normalized throughput of each HP job.
    last_hp_norm: Vec<Option<f64>>,
    migrations: u64,
    episode_errors: u64,
    oversized_rejected: u64,
    peak_gpus_used: usize,
    /// Fleet fault state; `None` when no fault plan is configured.
    health: Option<FleetHealth>,
    /// Fleet-level robustness roll-up (all defaults when fault-free).
    robust: FleetRobustnessReport,
    /// Formatted context of failed episodes (capped).
    episode_failures: Vec<String>,
    /// Sum over epoch boundaries of placement-accepting GPUs (availability
    /// numerator; only accumulated when a fault plan is armed).
    live_gpu_epochs: u64,
}

impl FleetSim {
    /// Builds the control plane over `trace`. Offline mode profiles each
    /// distinct workload once up front (memoized per label); online mode
    /// starts every job cold and learns.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Gpu`] when offline profiling of a workload fails.
    pub fn new(
        trace: FleetTrace,
        cfg: FleetConfig,
        dedicated: BTreeMap<String, DedicatedRef>,
    ) -> Result<FleetSim, ClusterError> {
        let mut offline_tables = BTreeMap::new();
        if !cfg.online {
            for j in trace.jobs.iter().filter(|j| cfg.fits_device(&j.client)) {
                if let Entry::Vacant(e) = offline_tables.entry(j.client.workload.label()) {
                    let table = profile_workload(&j.client.workload, &cfg.rc.spec)
                        .map_err(ClusterError::Gpu)?
                        .table();
                    e.insert(table);
                }
            }
        }
        let n = trace.jobs.len();
        let mut arrivals_order: Vec<usize> = (0..n).collect();
        arrivals_order.sort_by_key(|&i| (trace.jobs[i].arrive, i));
        let placer = FleetPlacer::new(cfg.gpus, cfg.rc.spec.memory_capacity, cfg.max_jobs_per_gpu);
        let mut stats = Vec::with_capacity(n);
        stats.resize_with(n, JobStats::default);
        let health = cfg.faults.clone().map(|plan| FleetHealth {
            plan,
            gpu: vec![GpuHealth::Healthy; cfg.gpus],
            strikes: vec![0; cfg.gpus],
            evacuees: Vec::new(),
            evacuated_at: vec![None; n],
            evac_count: vec![0; n],
            lost: vec![false; n],
        });
        Ok(FleetSim {
            cfg,
            trace,
            dedicated,
            offline_tables,
            placer,
            epoch: 0,
            arrivals_order,
            next_arrival: 0,
            pending: Vec::new(),
            stats,
            learned: vec![None; n],
            last_hp_norm: vec![None; n],
            migrations: 0,
            episode_errors: 0,
            oversized_rejected: 0,
            peak_gpus_used: 0,
            health,
            robust: FleetRobustnessReport::default(),
            episode_failures: Vec::new(),
            live_gpu_epochs: 0,
        })
    }

    /// Records one evacuation of job `id` at `epoch`: within budget the job
    /// joins the HP-first re-placement queue; past it the job is shed — the
    /// only path that ever drops a job, and it reports
    /// [`ClusterError::CapacityExhausted`] context instead of panicking.
    fn evacuate_job(&mut self, id: usize, epoch: usize) {
        let hp = self.trace.jobs[id].client.priority == ClientPriority::HighPriority;
        let live_gpus = self.placer.live_gpus();
        let Some(h) = self.health.as_mut() else { return };
        if h.lost[id] {
            return;
        }
        h.evac_count[id] = h.evac_count[id].saturating_add(1);
        self.robust.evacuations += 1;
        if h.evac_count[id] > h.plan.max_evacuations {
            h.lost[id] = true;
            h.evacuated_at[id] = None;
            let reason = ClusterError::CapacityExhausted {
                job: id,
                epoch,
                live_gpus,
            }
            .to_string();
            if hp {
                self.robust.hp_rejected += 1;
            } else {
                self.robust.be_lost += 1;
            }
            if self.robust.rejections.len() < MAX_FLEET_REJECTIONS {
                self.robust.rejections.push(FleetRejection {
                    job: id,
                    hp,
                    epoch,
                    reason,
                });
            }
        } else {
            h.evacuated_at[id] = Some(epoch);
            h.evacuees.push(id);
        }
    }

    /// Quarantines GPU `g` after a faulted episode (or marks probation
    /// progress impossible): strike, exponential-backoff offline window,
    /// evacuate residents.
    fn quarantine_gpu(&mut self, g: usize) {
        let epoch = self.epoch;
        {
            let Some(h) = self.health.as_mut() else { return };
            if matches!(h.gpu[g], GpuHealth::Dead | GpuHealth::Quarantined { .. }) {
                return;
            }
            h.strikes[g] = h.strikes[g].saturating_add(1);
            let level = h.strikes[g].saturating_sub(1).min(31);
            let span = (1u64 << level).clamp(1, h.plan.quarantine_max_epochs.max(1));
            h.gpu[g] = GpuHealth::Quarantined {
                until: epoch.saturating_add(span as usize),
            };
        }
        self.robust.quarantines += 1;
        self.placer.set_offline(g, true);
        for id in self.placer.residents(g).to_vec() {
            self.placer.remove(id);
            self.evacuate_job(id, epoch);
        }
    }

    /// Credits GPU `g` with a clean episode: probation progresses and
    /// eventually decays a strike.
    fn probation_progress(&mut self, g: usize) {
        let Some(h) = self.health.as_mut() else { return };
        if let GpuHealth::Probation { clean_left } = h.gpu[g] {
            if clean_left <= 1 {
                h.gpu[g] = GpuHealth::Healthy;
                h.strikes[g] = h.strikes[g].saturating_sub(1);
            } else {
                h.gpu[g] = GpuHealth::Probation {
                    clean_left: clean_left - 1,
                };
            }
        }
    }

    /// Epoch-boundary health pass: quarantine expiry (probationary return),
    /// then a fate roll per alive GPU — `Dead` shrinks capacity and
    /// evacuates residents; `Transient` arms device-fault injection for this
    /// epoch's episode. Returns the transient-fated GPU set.
    fn health_boundary(&mut self, epoch: usize) -> Vec<bool> {
        let mut transient = vec![false; self.cfg.gpus];
        if self.health.is_none() {
            return transient;
        }
        for (g, fated_transient) in transient.iter_mut().enumerate() {
            if let Some(h) = self.health.as_mut() {
                if let GpuHealth::Quarantined { until } = h.gpu[g] {
                    if until <= epoch {
                        h.gpu[g] = GpuHealth::Probation {
                            clean_left: h.plan.probation_epochs.max(1),
                        };
                        self.placer.set_offline(g, false);
                        self.robust.reinstated += 1;
                    }
                }
            }
            let fate = {
                let h = self.health.as_ref().expect("health checked above");
                match h.gpu[g] {
                    GpuHealth::Dead | GpuHealth::Quarantined { .. } => continue,
                    GpuHealth::Healthy | GpuHealth::Probation { .. } => h.plan.fate(g, epoch),
                }
            };
            match fate {
                GpuFate::Healthy => {}
                GpuFate::Transient => *fated_transient = true,
                GpuFate::Dead => {
                    if let Some(h) = self.health.as_mut() {
                        h.gpu[g] = GpuHealth::Dead;
                    }
                    self.robust.gpus_dead += 1;
                    self.placer.set_offline(g, true);
                    for id in self.placer.residents(g).to_vec() {
                        self.placer.remove(id);
                        self.evacuate_job(id, epoch);
                    }
                }
            }
        }
        self.live_gpu_epochs += self.placer.live_gpus() as u64;
        transient
    }

    /// Deterministic shed-BE-first preemption: finds the lowest-index live
    /// GPU where evicting a single best-effort resident (lowest job id that
    /// frees enough memory) lets high-priority `job` fit, performs the swap,
    /// and returns `(gpu, victim)`. The victim must be requeued by the
    /// caller.
    fn preempt_be_for(&mut self, id: usize, job: PackJob) -> Option<(usize, usize)> {
        for g in 0..self.cfg.gpus {
            if self.placer.is_offline(g) || self.placer.hp_of(g).is_some() {
                continue;
            }
            let free = self.placer.free_mem(g);
            let mut victim: Option<usize> = None;
            for &r in self.placer.residents(g) {
                let rjob = self.placer.job(r).copied();
                let Some(rjob) = rjob else { continue };
                if rjob.hp {
                    continue;
                }
                if free + rjob.mem >= job.mem && victim.is_none_or(|v| r < v) {
                    victim = Some(r);
                }
            }
            let Some(victim) = victim else { continue };
            self.placer.remove(victim);
            self.placer.force_place(id, job, g);
            self.robust.be_preempted += 1;
            return Some((g, victim));
        }
        None
    }

    /// Marks an outstanding evacuation of `id` as recovered at `epoch`.
    fn note_recovery(&mut self, id: usize, epoch: usize) {
        let Some(h) = self.health.as_mut() else { return };
        if let Some(at) = h.evacuated_at[id].take() {
            self.robust.evacuations_recovered += 1;
            self.robust.max_epochs_to_recovery = self
                .robust
                .max_epochs_to_recovery
                .max(epoch.saturating_sub(at) as u64);
        }
    }

    fn pack_job(&self, id: usize) -> PackJob {
        let spec = &self.trace.jobs[id].client;
        // Re-placement demand: the online-learned table when it has entries,
        // the static workload vector otherwise (cold start / offline mode).
        let demand = self
            .learned[id]
            .as_ref()
            .and_then(demand_from_profiles)
            .unwrap_or_else(|| demand_vector(&spec.workload));
        PackJob {
            mem: spec.workload.memory_footprint,
            demand,
            hp: spec.priority == ClientPriority::HighPriority,
        }
    }

    /// Migrates the worst-matched best-effort resident off every GPU whose
    /// high-priority job ran below `migrate_threshold` of dedicated last
    /// epoch (at most one move per GPU per epoch).
    fn migrate(&mut self) {
        for gpu in 0..self.cfg.gpus {
            let residents = self.placer.residents(gpu).to_vec();
            if residents.len() < 2 {
                continue;
            }
            let Some(hp) = self.placer.hp_of(gpu) else {
                continue;
            };
            let Some(norm) = self.last_hp_norm[hp] else {
                continue;
            };
            if norm >= self.cfg.migrate_threshold {
                continue;
            }
            // `hp`/`r` come from the resident lists, so the lookups should
            // always hit; skip the GPU instead of panicking if they don't.
            let Some(hp_demand) = self.placer.job(hp).map(|j| j.demand) else {
                continue;
            };
            let mut victim: Option<(f64, usize)> = None;
            for &r in residents.iter().filter(|&&r| r != hp) {
                let Some(rj) = self.placer.job(r) else { continue };
                let score = demand_complementarity(hp_demand, rj.demand);
                // Strictly-less keeps the lowest job id on ties.
                if victim.is_none_or(|(s, _)| score < s) {
                    victim = Some((score, r));
                }
            }
            let Some((_, victim)) = victim else { continue };
            let Some(job) = self.placer.job(victim).copied() else {
                continue;
            };
            self.placer.remove(victim);
            if self.placer.try_place(victim, job, Some(gpu)).is_some() {
                self.migrations += 1;
                self.stats[victim].moves += 1;
                // Give the relieved pairing a fresh epoch before re-judging.
                self.last_hp_norm[hp] = None;
            } else {
                // Nowhere better: stay put.
                self.placer.force_place(victim, job, gpu);
            }
        }
    }

    /// Advances the control plane one epoch: applies migration, departures,
    /// arrivals, and placement, then returns the epoch's episodes (one per
    /// occupied GPU; possibly empty early in the trace). Returns `None`
    /// after the last epoch.
    pub fn next_epoch(&mut self) -> Option<Vec<EpisodeSpec>> {
        if self.epoch >= self.cfg.epochs {
            return None;
        }
        let epoch = self.epoch;
        let now = self.cfg.epoch * epoch as u64;

        // Fleet fault plan: quarantine expiry, death rolls, transient arming.
        // A no-op returning all-healthy when no plan is configured.
        let transient = self.health_boundary(epoch);

        if self.cfg.migration && epoch > 0 {
            self.migrate();
        }

        // Departures: resident jobs whose lifetime ended by this boundary
        // free their slots; pending jobs that expired unplaced are dropped.
        let departed: Vec<usize> = (0..self.trace.jobs.len())
            .filter(|&id| self.placer.gpu_of(id).is_some() && self.trace.jobs[id].depart <= now)
            .collect();
        for id in departed {
            self.placer.remove(id);
        }
        let trace = &self.trace;
        self.pending.retain(|&id| trace.jobs[id].depart > now);

        // Arrivals: everything with arrive <= now joins the FIFO queue.
        while self.next_arrival < self.arrivals_order.len() {
            let id = self.arrivals_order[self.next_arrival];
            if self.trace.jobs[id].arrive > now {
                break;
            }
            self.next_arrival += 1;
            if !self.cfg.fits_device(&self.trace.jobs[id].client) {
                // Cannot fit on any device, ever: reject at admission.
                self.oversized_rejected += 1;
                continue;
            }
            if self.trace.jobs[id].depart > now {
                self.pending.push(id);
            }
        }

        // Evacuees re-place ahead of the FIFO queue, high-priority first
        // (then id order), carrying their learned demand vectors. An HP
        // evacuee that fits nowhere may preempt a best-effort resident
        // (shed-BE-first degraded operation); one that still fits nowhere
        // waits at the front of the line for the next boundary. Fault-free
        // fleets never have evacuees, so this pass is a no-op there.
        let mut evacuees: Vec<usize> = match self.health.as_mut() {
            Some(h) => std::mem::take(&mut h.evacuees),
            None => Vec::new(),
        };
        if !evacuees.is_empty() {
            evacuees.retain(|&id| self.trace.jobs[id].depart > now);
            evacuees.sort_by_key(|&id| {
                (
                    self.trace.jobs[id].client.priority != ClientPriority::HighPriority,
                    id,
                )
            });
            for id in evacuees {
                let job = self.pack_job(id);
                if self.placer.try_place(id, job, None).is_some() {
                    self.stats[id].ever_placed = true;
                    self.note_recovery(id, epoch);
                } else if job.hp {
                    if let Some((_, victim)) = self.preempt_be_for(id, job) {
                        self.stats[id].ever_placed = true;
                        self.note_recovery(id, epoch);
                        self.pending.push(victim);
                    } else if let Some(h) = self.health.as_mut() {
                        h.evacuees.push(id);
                    }
                } else {
                    // Displaced best-effort jobs queue behind everyone.
                    self.pending.push(id);
                }
            }
        }

        // Place: drain the queue in FIFO order; jobs that do not fit
        // anywhere right now stay queued (capacity may free up later).
        let mut still_pending = Vec::new();
        for id in std::mem::take(&mut self.pending) {
            let job = self.pack_job(id);
            if self.placer.try_place(id, job, None).is_some() {
                self.stats[id].ever_placed = true;
                self.note_recovery(id, epoch);
            } else if job.hp && self.health.is_some() {
                if let Some((_, victim)) = self.preempt_be_for(id, job) {
                    self.stats[id].ever_placed = true;
                    self.note_recovery(id, epoch);
                    still_pending.push(victim);
                } else {
                    still_pending.push(id);
                }
            } else {
                still_pending.push(id);
            }
        }
        self.pending = still_pending;
        self.peak_gpus_used = self.peak_gpus_used.max(self.placer.used_gpus());

        let mut episodes = Vec::new();
        for (gpu, &fated_transient) in transient.iter().enumerate() {
            let jobs = self.placer.residents(gpu).to_vec();
            if jobs.is_empty() {
                continue;
            }
            let clients: Vec<ClientSpec> = jobs
                .iter()
                .map(|&id| self.trace.jobs[id].client.clone())
                .collect();
            let profiles: Vec<Option<ProfileTable>> = jobs
                .iter()
                .map(|&id| {
                    if self.cfg.online {
                        // Cold start on an empty table; the admission ladder
                        // fills it and `absorb` carries it forward.
                        Some(self.learned[id].clone().unwrap_or_default())
                    } else {
                        // Tables were memoized per label in `new`; fall back
                        // to an empty table (conservative scheduling) rather
                        // than panicking on a miss.
                        let label = self.trace.jobs[id].client.workload.label();
                        Some(self.offline_tables.get(&label).cloned().unwrap_or_default())
                    }
                })
                .collect();
            let mut rc = self.cfg.episode_rc(gpu, epoch);
            if fated_transient {
                if let Some(h) = &self.health {
                    // Sticky in-episode faults come from the existing
                    // gpu-sim injector; the per-episode seed already keys
                    // the fault plan, so chaos replays byte-identically.
                    rc.faults = h.plan.episode_faults();
                    self.robust.chaos_episodes += 1;
                }
            }
            episodes.push(EpisodeSpec {
                gpu,
                epoch,
                jobs,
                policy: self.cfg.policy.clone(),
                clients,
                profiles,
                rc,
            });
        }
        self.epoch += 1;
        Some(episodes)
    }

    /// Folds an epoch's episode results back into the control plane:
    /// per-job statistics, learned profile tables (online mode), and the
    /// per-GPU health signals migration reads.
    pub fn absorb(&mut self, results: Vec<(EpisodeSpec, Result<RunResult, GpuError>)>) {
        for (spec, res) in results {
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    // A failed episode surfaces with ClusterError context
                    // (capped), counts as a device strike, and its residents
                    // are evacuated — never a panic.
                    self.episode_errors += 1;
                    if self.episode_failures.len() < MAX_EPISODE_FAILURES {
                        self.episode_failures.push(format!(
                            "gpu {} epoch {}: {}",
                            spec.gpu,
                            spec.epoch,
                            ClusterError::Gpu(e)
                        ));
                    }
                    self.quarantine_gpu(spec.gpu);
                    continue;
                }
            };
            // Satellite fix (PR 9): per-episode robustness counters used to
            // be dropped at the fleet boundary; they now roll up regardless
            // of whether a fleet fault plan is armed. Fault-free episodes
            // contribute all-zero counters, so the fault-free report (and
            // its digest, which excludes robustness) is unchanged.
            self.robust.episodes.merge(&r.robustness);
            let window = r.window.as_secs_f64();
            for (slot, &job) in spec.jobs.iter().enumerate() {
                let Some(c) = r.clients.get(slot) else {
                    // Episode/client mismatch should be impossible; surface
                    // it as an episode error rather than panicking mid-fleet.
                    self.episode_errors += 1;
                    continue;
                };
                let st = &mut self.stats[job];
                st.resident_epochs += 1;
                st.completed += c.completed;
                for &s in c.latency.samples() {
                    st.latency.record(s);
                }
                if self.trace.jobs[job].client.priority == ClientPriority::HighPriority {
                    let label = self.trace.jobs[job].client.workload.label();
                    let ded = self.dedicated.get(&label).map_or(0.0, |d| d.throughput);
                    let tput = if window > 0.0 { c.completed as f64 / window } else { 0.0 };
                    self.last_hp_norm[job] = Some(if ded > 0.0 { tput / ded } else { 0.0 });
                }
            }
            if let Some(tables) = &r.learned {
                for (slot, &job) in spec.jobs.iter().enumerate() {
                    let Some(table) = tables.get(slot) else { continue };
                    if !table.is_empty() {
                        if let Some(d) = demand_from_profiles(table) {
                            self.placer.update_demand(job, d);
                        }
                        self.learned[job] = Some(table.clone());
                    }
                }
            }
            // Health triage: an episode that left the device sticky-faulted
            // (or needed any sticky-fault recovery mid-run) strikes the GPU;
            // a clean episode progresses probation. No-ops without a plan.
            if self.health.is_some() {
                if r.ended_faulted || r.robustness.device_faults > 0 {
                    self.quarantine_gpu(spec.gpu);
                } else {
                    self.probation_progress(spec.gpu);
                }
            }
        }
    }

    /// Final fleet-level report.
    pub fn into_report(self) -> FleetReport {
        let FleetSim {
            cfg,
            trace,
            dedicated,
            stats,
            migrations,
            episode_errors,
            oversized_rejected,
            peak_gpus_used,
            health,
            mut robust,
            episode_failures,
            live_gpu_epochs,
            ..
        } = self;
        let n = trace.jobs.len();
        let (evac_count, lost) = match health {
            Some(h) => {
                // Availability is only meaningful with a fault plan armed;
                // fault-free reports keep the all-default robustness block.
                let cells = (cfg.gpus * cfg.epochs) as f64;
                robust.availability = if cells > 0.0 {
                    live_gpu_epochs as f64 / cells
                } else {
                    1.0
                };
                (h.evac_count, h.lost)
            }
            None => (vec![0; n], vec![false; n]),
        };
        let window = (cfg.epoch - cfg.epoch / 5).as_secs_f64();
        let mut jobs = Vec::with_capacity(stats.len());
        let mut hp_latency = LatencyRecorder::new();
        for (id, mut st) in stats.into_iter().enumerate() {
            let spec = &trace.jobs[id].client;
            let hp = spec.priority == ClientPriority::HighPriority;
            let label = spec.workload.label();
            let dref = dedicated.get(&label).copied().unwrap_or(DedicatedRef {
                throughput: 0.0,
                p99: SimTime::ZERO,
            });
            let secs = st.resident_epochs as f64 * window;
            let throughput = if secs > 0.0 { st.completed as f64 / secs } else { 0.0 };
            let normalized = if dref.throughput > 0.0 {
                throughput / dref.throughput
            } else {
                0.0
            };
            let p99 = st.latency.p99();
            if hp {
                for &s in st.latency.samples() {
                    hp_latency.record(s);
                }
            }
            // Jobs that never ran an epoch miss their SLO by definition, as
            // do jobs the control plane shed under degraded capacity.
            let slo_met = st.resident_epochs > 0
                && !lost[id]
                && if hp {
                    st.completed > 0 && p99 <= dref.p99.mul_f64(cfg.slo_latency_factor)
                } else {
                    normalized >= cfg.slo_tput_factor
                };
            jobs.push(FleetJobResult {
                job: id,
                label,
                hp,
                resident_epochs: st.resident_epochs,
                completed: st.completed,
                throughput,
                normalized,
                p99,
                slo_met,
                moves: st.moves,
                ever_placed: st.ever_placed,
                evacuations: u64::from(evac_count[id]),
                lost: lost[id],
            });
        }
        let hp_jobs = jobs.iter().filter(|j| j.hp).count();
        let be_jobs = jobs.len() - hp_jobs;
        let hp_met = jobs.iter().filter(|j| j.hp && j.slo_met).count();
        let be_met = jobs.iter().filter(|j| !j.hp && j.slo_met).count();
        let never_placed = jobs.iter().filter(|j| !j.ever_placed).count();
        let dedicated_gpus_needed = trace.peak_concurrent();
        FleetReport {
            gpus: cfg.gpus,
            epochs: cfg.epochs,
            epoch: cfg.epoch,
            peak_gpus_used,
            dedicated_gpus_needed,
            gpus_saved: dedicated_gpus_needed as i64 - peak_gpus_used as i64,
            hp_p99: hp_latency.p99(),
            hp_slo_attainment: if hp_jobs > 0 { hp_met as f64 / hp_jobs as f64 } else { 1.0 },
            be_slo_attainment: if be_jobs > 0 { be_met as f64 / be_jobs as f64 } else { 1.0 },
            slo_attainment: if jobs.is_empty() {
                1.0
            } else {
                (hp_met + be_met) as f64 / jobs.len() as f64
            },
            migrations,
            episode_errors,
            oversized_rejected,
            never_placed,
            robustness: robust,
            episode_failures,
            jobs,
        }
    }
}

/// Per-job outcome across all its resident epochs.
#[derive(Debug, Clone)]
pub struct FleetJobResult {
    /// Job id (index into the trace).
    pub job: usize,
    /// Workload label.
    pub label: String,
    /// High-priority job.
    pub hp: bool,
    /// Epochs the job was resident on some GPU.
    pub resident_epochs: u64,
    /// Requests/iterations completed across all resident epochs.
    pub completed: u64,
    /// Requests per resident-second.
    pub throughput: f64,
    /// Throughput relative to a dedicated GPU.
    pub normalized: f64,
    /// p99 latency across all resident epochs.
    pub p99: SimTime,
    /// SLO attainment: HP jobs by p99 vs dedicated, BE jobs by normalized
    /// throughput; never-resident jobs count as missed.
    pub slo_met: bool,
    /// Migration count.
    pub moves: u64,
    /// The job was placed at least once.
    pub ever_placed: bool,
    /// Times the job was evacuated off a dead/faulted GPU (0 fault-free).
    pub evacuations: u64,
    /// The control plane shed this job (evacuation budget exhausted); its
    /// SLO counts as missed. Never true without a fleet fault plan.
    pub lost: bool,
}

/// Fleet-level outcome.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Fleet size (GPUs available).
    pub gpus: usize,
    /// Epochs simulated.
    pub epochs: usize,
    /// Epoch length.
    pub epoch: SimTime,
    /// Most GPUs occupied at any epoch boundary.
    pub peak_gpus_used: usize,
    /// Peak concurrently-live jobs in the raw trace: the size of the
    /// dedicated (one GPU per job) fleet this run replaces.
    pub dedicated_gpus_needed: usize,
    /// `dedicated_gpus_needed - peak_gpus_used` (negative if sharing lost).
    pub gpus_saved: i64,
    /// Fleet-wide p99 across every HP request.
    pub hp_p99: SimTime,
    /// Fraction of HP jobs meeting their latency SLO.
    pub hp_slo_attainment: f64,
    /// Fraction of BE jobs meeting their throughput SLO.
    pub be_slo_attainment: f64,
    /// Fraction of all jobs meeting their SLO.
    pub slo_attainment: f64,
    /// Successful migrations.
    pub migrations: u64,
    /// Episodes that returned an error (excluded from statistics).
    pub episode_errors: u64,
    /// Jobs rejected at admission because they exceed device memory.
    pub oversized_rejected: u64,
    /// Jobs that were never placed before departing.
    pub never_placed: usize,
    /// Fleet-level fault-and-recovery roll-up (all defaults fault-free).
    pub robustness: FleetRobustnessReport,
    /// Formatted context of failed episodes, capped at
    /// `MAX_EPISODE_FAILURES` entries (`episode_errors` keeps the total).
    pub episode_failures: Vec<String>,
    /// Per-job results, in job-id order.
    pub jobs: Vec<FleetJobResult>,
}

impl FleetReport {
    /// FNV-1a digest over every per-job outcome — a compact determinism
    /// fingerprint: two runs of the same trace/config must agree on it
    /// regardless of thread count.
    pub fn jobs_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for j in &self.jobs {
            eat(&(j.job as u64).to_le_bytes());
            eat(&[j.hp as u8, j.slo_met as u8, j.ever_placed as u8]);
            eat(&j.resident_epochs.to_le_bytes());
            eat(&j.completed.to_le_bytes());
            eat(&j.throughput.to_bits().to_le_bytes());
            eat(&j.normalized.to_bits().to_le_bytes());
            eat(&j.p99.as_nanos().to_le_bytes());
            eat(&j.moves.to_le_bytes());
        }
        eat(&(self.peak_gpus_used as u64).to_le_bytes());
        eat(&self.gpus_saved.to_le_bytes());
        eat(&self.migrations.to_le_bytes());
        h
    }
}

/// Runs a fleet end-to-end on the current thread (the bench driver shards
/// episode batches across the runner instead; both produce identical
/// reports).
///
/// # Errors
///
/// Propagates [`FleetSim::new`] and dedicated-reference failures.
pub fn run_fleet_serial(trace: FleetTrace, cfg: FleetConfig) -> Result<FleetReport, ClusterError> {
    let dedicated = dedicated_refs_serial(&trace, &cfg)?;
    let mut sim = FleetSim::new(trace, cfg, dedicated)?;
    while let Some(specs) = sim.next_epoch() {
        let results = specs
            .into_iter()
            .map(|s| {
                let r = s.run();
                (s, r)
            })
            .collect();
        sim.absorb(results);
    }
    Ok(sim.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_desim::time::SimTime;
    use orion_workloads::arrivals::ArrivalProcess;
    use orion_workloads::models::llm::llm_decode_step;
    use orion_workloads::registry::inference_workload;
    use orion_workloads::ModelKind;

    fn tiny_fleet_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::new(4, 3);
        cfg.epoch = SimTime::from_secs(1);
        cfg.rc.seed = 7;
        cfg
    }

    fn tiny_trace(cfg: &FleetConfig) -> FleetTrace {
        let mut tc = FleetTraceConfig::new(8, cfg.horizon());
        tc.seed = 11;
        FleetTrace::synthesize(&tc)
    }

    #[test]
    fn trace_synthesis_is_deterministic_and_bounded() {
        let cfg = tiny_fleet_cfg();
        let a = tiny_trace(&cfg);
        let b = tiny_trace(&cfg);
        assert_eq!(a.jobs.len(), 8);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.arrive, y.arrive);
            assert_eq!(x.depart, y.depart);
            assert_eq!(x.client.workload.label(), y.client.workload.label());
            assert!(x.arrive <= x.depart);
            assert!(x.depart <= cfg.horizon());
        }
        assert!(a.peak_concurrent() >= 1);
    }

    #[test]
    fn fleet_serial_run_reports_jobs() {
        let cfg = tiny_fleet_cfg();
        let trace = tiny_trace(&cfg);
        let r = run_fleet_serial(trace, cfg).unwrap();
        assert_eq!(r.jobs.len(), 8);
        assert_eq!(r.episode_errors, 0);
        assert!(r.peak_gpus_used >= 1 && r.peak_gpus_used <= 4);
        // At least one job must have run and completed work.
        assert!(r.jobs.iter().any(|j| j.completed > 0));
        // Digest is stable across identical runs.
        let cfg2 = tiny_fleet_cfg();
        let r2 = run_fleet_serial(tiny_trace(&cfg2), cfg2).unwrap();
        assert_eq!(r.jobs_digest(), r2.jobs_digest());
    }

    #[test]
    fn fleet_online_learns_and_can_migrate() {
        let mut cfg = tiny_fleet_cfg();
        cfg.online = true;
        cfg.migration = true;
        // An aggressive threshold so the migration path actually exercises.
        cfg.migrate_threshold = 2.0;
        let trace = tiny_trace(&cfg);
        let r = run_fleet_serial(trace, cfg).unwrap();
        assert_eq!(r.episode_errors, 0);
        assert!(r.jobs.iter().any(|j| j.completed > 0));
    }

    #[test]
    fn fleet_fate_rolls_are_pure_and_mixed() {
        let plan = FleetFaultPlan {
            transient_rate: 0.3,
            dead_rate: 0.1,
            ..FleetFaultPlan::new(5)
        };
        let mut dead = 0;
        let mut transient = 0;
        for gpu in 0..64 {
            for epoch in 0..8 {
                let fate = plan.fate(gpu, epoch);
                assert_eq!(fate, plan.fate(gpu, epoch), "fate must be pure");
                match fate {
                    GpuFate::Dead => dead += 1,
                    GpuFate::Transient => transient += 1,
                    GpuFate::Healthy => {}
                }
            }
        }
        // 512 cells at 10%/30%: both outcomes must actually occur, and
        // healthy must dominate.
        assert!(dead > 0 && transient > 0);
        assert!(dead + transient < 512 / 2);
        // A different seed decides different cells.
        let other = FleetFaultPlan {
            transient_rate: 0.3,
            dead_rate: 0.1,
            ..FleetFaultPlan::new(6)
        };
        assert!(
            (0..64).any(|g| (0..8).any(|e| plan.fate(g, e) != other.fate(g, e))),
            "seed must matter"
        );
    }

    /// Satellite regression (PR 9): per-episode robustness counters used to
    /// be dropped at the fleet boundary. Arm episode-level faults with NO
    /// fleet fault plan and require the counters to surface in the report.
    #[test]
    fn episode_robustness_rolls_up_without_fleet_plan() {
        let mut cfg = tiny_fleet_cfg();
        cfg.rc.faults = FaultConfig::none().with_rates(orion_gpu::fault::FaultRates {
            kernel_fault: 0.05,
            ..Default::default()
        });
        let trace = tiny_trace(&cfg);
        let r = run_fleet_serial(trace, cfg).unwrap();
        assert!(
            r.robustness.episodes.any(),
            "episode fault counters must reach the fleet report"
        );
        assert!(r.robustness.episodes.device_faults > 0);
        // No fleet plan: none of the fleet-level machinery may fire.
        assert_eq!(r.robustness.gpus_dead, 0);
        assert_eq!(r.robustness.evacuations, 0);
        assert_eq!(r.robustness.quarantines, 0);
        assert!(r.jobs.iter().all(|j| !j.lost && j.evacuations == 0));
    }

    #[test]
    fn fleet_chaos_evacuates_recovers_and_replays() {
        let mut cfg = tiny_fleet_cfg();
        cfg.epochs = 6;
        // Aggressive plan so 4 GPUs x 6 epochs reliably exercise death,
        // quarantine, and evacuation.
        cfg.faults = Some(FleetFaultPlan {
            transient_rate: 0.35,
            dead_rate: 0.15,
            episode_rates: orion_gpu::fault::FaultRates {
                kernel_fault: 0.05,
                ..Default::default()
            },
            ..FleetFaultPlan::new(13)
        });
        let trace = tiny_trace(&cfg);
        let r = run_fleet_serial(trace, cfg.clone()).unwrap();
        let ro = &r.robustness;
        assert!(ro.any(), "chaos run must report robustness");
        assert!(ro.chaos_episodes > 0 || ro.gpus_dead > 0, "chaos must fire");
        assert!(ro.evacuations > 0, "failed devices must evacuate residents");
        assert!(ro.availability > 0.0 && ro.availability < 1.0);
        assert_eq!(
            r.jobs.iter().map(|j| j.evacuations).sum::<u64>(),
            ro.evacuations,
            "per-job evacuation counts must sum to the fleet counter"
        );
        assert!(
            ro.max_epochs_to_recovery <= cfg.epochs as u64,
            "recovery must be bounded"
        );
        // Shed jobs (if any) are SLO misses with CapacityExhausted context.
        for rej in &ro.rejections {
            assert!(rej.reason.contains("evacuation budget exhausted"));
            assert!(r.jobs[rej.job].lost);
            assert!(!r.jobs[rej.job].slo_met);
        }
        // Chaos replays byte-identically: same trace + config, same digest
        // and same robustness roll-up.
        let r2 = run_fleet_serial(tiny_trace(&cfg), cfg).unwrap();
        assert_eq!(r.jobs_digest(), r2.jobs_digest());
        assert_eq!(*ro, r2.robustness);
    }

    #[test]
    fn fleet_fault_free_has_default_robustness() {
        let cfg = tiny_fleet_cfg();
        let r = run_fleet_serial(tiny_trace(&cfg), cfg).unwrap();
        assert!(!r.robustness.any(), "fault-free must construct nothing");
        assert!(r.episode_failures.is_empty());
        assert!(r.jobs.iter().all(|j| !j.lost && j.evacuations == 0));
    }

    #[test]
    fn fleet_departures_free_capacity() {
        // Two GPUs, jobs sized so the second wave only fits after the first
        // departs.
        let mut cfg = FleetConfig::new(1, 4);
        cfg.max_jobs_per_gpu = 1;
        cfg.rc.seed = 3;
        let mk = |arrive: u64, depart: u64| FleetJob {
            client: ClientSpec::best_effort(
                inference_workload(ModelKind::ResNet50),
                ArrivalProcess::ClosedLoop,
            ),
            arrive: SimTime::from_secs(arrive),
            depart: SimTime::from_secs(depart),
        };
        let trace = FleetTrace {
            jobs: vec![mk(0, 2), mk(0, 4)],
        };
        let r = run_fleet_serial(trace, cfg).unwrap();
        // Job 0 runs epochs 0-1; job 1 queues, then runs epochs 2-3.
        assert_eq!(r.jobs[0].resident_epochs, 2);
        assert_eq!(r.jobs[1].resident_epochs, 2);
        assert_eq!(r.peak_gpus_used, 1);
        assert_eq!(r.never_placed, 0);
    }

    /// A one-epoch fleet over `clients` that all arrive at 0 and stay to the
    /// horizon: the static-cluster case.
    fn static_fleet(clients: Vec<ClientSpec>, gpus: usize) -> (FleetTrace, FleetConfig) {
        let mut cfg = FleetConfig::new(gpus, 1);
        cfg.max_jobs_per_gpu = 2;
        let trace = FleetTrace::fixed(clients, cfg.horizon());
        (trace, cfg)
    }

    fn be(w: orion_workloads::Workload) -> ClientSpec {
        ClientSpec::best_effort(w, ArrivalProcess::ClosedLoop)
    }

    #[test]
    fn static_fleet_with_too_few_gpus_leaves_jobs_unplaced() {
        // Three jobs, one GPU, two jobs per GPU: the third never places. It
        // is reported, not a panic or an error.
        let (trace, cfg) = static_fleet(
            vec![
                be(inference_workload(ModelKind::Bert)),
                be(llm_decode_step()),
                be(inference_workload(ModelKind::ResNet50)),
            ],
            1,
        );
        let r = run_fleet_serial(trace, cfg).unwrap();
        assert_eq!(r.never_placed, 1);
        assert_eq!(r.peak_gpus_used, 1);
        let unplaced = r.jobs.iter().find(|j| !j.ever_placed).unwrap();
        assert_eq!(unplaced.job, 2);
        assert_eq!(unplaced.resident_epochs, 0);
        assert!(!unplaced.slo_met);
        assert!(r.jobs[..2].iter().all(|j| j.completed > 0));
    }

    #[test]
    fn static_fleet_rejects_oversized_job_without_placing_it() {
        let (trace, mut cfg) = static_fleet(
            vec![
                be(orion_workloads::registry::training_workload(ModelKind::Transformer)), // 8.5 GiB
                be(inference_workload(ModelKind::ResNet50)),
            ],
            2,
        );
        cfg.rc.spec.memory_capacity = 8 * (1 << 30);
        let r = run_fleet_serial(trace, cfg).unwrap();
        assert_eq!(r.oversized_rejected, 1);
        assert_eq!(r.never_placed, 1);
        assert!(!r.jobs[0].ever_placed);
        assert!(r.jobs[1].ever_placed && r.jobs[1].completed > 0);
    }

    #[test]
    fn failed_baseline_is_reported_not_zeroed() {
        // A job whose dedicated reference run fails must surface as
        // BaselineFailed, not a silent normalized 0.0. An invalid kernel
        // (zero grid) fails the dedicated run. The bad job sits at trace
        // index 1 but its label ("BERT-…") sorts before "ResNet50-…", so
        // the error must name the trace index, not the label rank.
        use orion_gpu::kernel::KernelDesc;
        use orion_workloads::model::{Phase, Workload, WorkloadKind};
        use orion_workloads::OpSpec;

        let bad_kernel = KernelDesc {
            kernel_id: 9000,
            name: "bad".into(),
            grid_blocks: 0, // invalid: fails validation
            threads_per_block: 256,
            regs_per_thread: 32,
            shmem_per_block: 0,
            solo_duration: SimTime::from_micros(50),
            compute_util: 0.5,
            mem_util: 0.5,
        };
        let bad = Workload {
            model: ModelKind::Bert,
            kind: WorkloadKind::Inference { batch: 1 },
            ops: vec![(Phase::Forward, OpSpec::Kernel(std::sync::Arc::new(bad_kernel)))],
            memory_footprint: 1 << 30,
        };
        let (trace, cfg) =
            static_fleet(vec![be(inference_workload(ModelKind::ResNet50)), be(bad)], 1);
        match run_fleet_serial(trace, cfg) {
            Err(ClusterError::BaselineFailed { job, .. }) => assert_eq!(job, 1),
            other => panic!("expected BaselineFailed, got {other:?}"),
        }
    }
}
