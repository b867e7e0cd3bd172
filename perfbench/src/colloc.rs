//! `colloc`: the Figure 6/7 inf-train grid under Orion with offline
//! profiles. Each of the five HP inference models (Poisson arrivals at the
//! Table-3 rates, handed to the program as an explicit trace) is paired with
//! BE ResNet50, MobileNetV2 and BERT training: 15 cells at a 12 s horizon.

use std::time::Instant;

use orion_core::prelude::*;
use orion_desim::rng::{cell_seed, DetRng};
use orion_desim::time::SimTime;
use orion_gpu::engine::{GpuEngine, OpKind};
use orion_gpu::stream::{StreamId, StreamPriority};
use orion_metrics::LatencyRecorder;
use orion_profiler::{profile_workload, ProfileTable};
use orion_workloads::{
    inference_workload, training_workload, ArrivalProcess, ModelKind, OpSpec, PaperRates,
    Workload as Job, ALL_MODELS,
};

use crate::trace::Tracer;
use crate::{Digest, RepOutput, Workload, SLO_FACTOR};

const BE_MODELS: [ModelKind; 3] = [ModelKind::ResNet50, ModelKind::MobileNetV2, ModelKind::Bert];

/// Start of the measured window; the run horizon is `RunConfig`'s 12 s.
const WINDOW_START: SimTime = SimTime::from_secs(2);

pub struct Colloc;

struct Cell {
    hp: usize,
    be: usize,
    clients: Vec<ClientSpec>,
    profiles: Vec<Option<ProfileTable>>,
}

pub struct Prepared {
    rc: RunConfig,
    /// HP arrival trace per HP model.
    arrivals: Vec<Vec<SimTime>>,
    /// Dedicated-GPU window p99 per HP model.
    ded_p99: Vec<SimTime>,
    /// Dedicated-GPU throughput per BE model.
    ded_be_tput: Vec<f64>,
    cells: Vec<Cell>,
}

/// The paper's run configuration with the world's warmup at zero: the world
/// then records every HP completion and the harness applies the measured
/// window itself (see [`hp_window`]).
fn run_config(seed: u64) -> RunConfig {
    let mut rc = RunConfig::paper_default().with_seed(seed);
    rc.warmup = SimTime::ZERO;
    rc
}

/// An HP client's outcome over the measured window.
struct HpWindow {
    /// Latencies of requests completed in the window.
    latencies: Vec<SimTime>,
    /// Requests completed in the window within the limit.
    good: u64,
    /// Requests due in the window: every arrival not completed before it
    /// opened. Unfinished requests are misses.
    due: u64,
    /// Completion times are consistent with one-request-at-a-time FIFO
    /// service of `arrivals`.
    fifo: bool,
}

/// An HP client serves one request at a time in arrival order, so its
/// `k`-th recorded latency belongs to its `k`-th arrival and completed at
/// `arrival + latency`. That identifies, per request, whether it completed
/// before the window, in it, or never, so the good requests are a subset of
/// the due ones by construction.
fn hp_window(arrivals: &[SimTime], samples: &[SimTime], limit: SimTime) -> HpWindow {
    let mut w = HpWindow {
        latencies: Vec::with_capacity(samples.len()),
        good: 0,
        due: arrivals.len() as u64,
        fifo: samples.len() <= arrivals.len(),
    };
    let mut prev_done = SimTime::ZERO;
    for (&at, &lat) in arrivals.iter().zip(samples) {
        let done = at + lat;
        w.fifo &= done >= prev_done;
        prev_done = done;
        if done < WINDOW_START {
            w.due -= 1;
        } else {
            w.latencies.push(lat);
            w.good += u64::from(lat <= limit);
        }
    }
    w
}

fn p99(tr: &mut Tracer, id: u64, latencies: &[SimTime]) -> SimTime {
    tr.span("metrics.percentile", id, |_| {
        let mut r = LatencyRecorder::new();
        for &l in latencies {
            r.record(l);
        }
        r.p99()
    })
}

fn dedicated(
    tr: &mut Tracer,
    id: u64,
    client: ClientSpec,
    table: &ProfileTable,
    rc: &RunConfig,
) -> Result<RunResult, String> {
    tr.span("world.dedicated", id, |_| {
        run_collocation_with_profiles(PolicyKind::Mps, vec![client], vec![Some(table.clone())], rc)
    })
    .map_err(|e| format!("dedicated reference {id}: {e}"))
}

impl Workload for Colloc {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Prepared, String> {
        let rc = run_config(seed);
        let (hp_jobs, be_jobs, arrivals) = tr.span("workloads.build", 0, |_| {
            let hp: Vec<Job> = ALL_MODELS.iter().map(|&m| inference_workload(m)).collect();
            let be: Vec<Job> = BE_MODELS.iter().map(|&m| training_workload(m)).collect();
            let arrivals: Vec<Vec<SimTime>> = ALL_MODELS
                .iter()
                .enumerate()
                .map(|(i, &m)| {
                    let rps = PaperRates::inf_train_poisson(m);
                    let mut rng = DetRng::new(cell_seed(seed, i as u64));
                    ArrivalProcess::Poisson { rps }.schedule(rc.horizon, &mut rng)
                })
                .collect();
            (hp, be, arrivals)
        });
        let mut tables = Vec::new();
        for (i, job) in hp_jobs.iter().chain(&be_jobs).enumerate() {
            let profile = tr.span("profiler.profile", i as u64, |_| {
                profile_workload(job, &rc.spec)
            });
            tables.push(
                profile
                    .map_err(|e| format!("profiling {}: {e}", job.label()))?
                    .table(),
            );
        }
        let (hp_tables, be_tables) = tables.split_at(hp_jobs.len());
        let hp_clients: Vec<ClientSpec> = hp_jobs
            .into_iter()
            .zip(&arrivals)
            .map(|(j, a)| ClientSpec::high_priority(j, ArrivalProcess::Trace(a.clone())))
            .collect();
        let be_clients: Vec<ClientSpec> = be_jobs
            .into_iter()
            .map(|j| ClientSpec::best_effort(j, ArrivalProcess::ClosedLoop))
            .collect();

        let mut ded_p99 = Vec::new();
        for (i, c) in hp_clients.iter().enumerate() {
            let r = dedicated(tr, i as u64, c.clone(), &hp_tables[i], &rc)?;
            let w = hp_window(&arrivals[i], r.clients[0].latency.samples(), SimTime::MAX);
            ded_p99.push(p99(tr, i as u64, &w.latencies));
        }
        let mut ded_be_tput = Vec::new();
        for (j, c) in be_clients.iter().enumerate() {
            let id = (hp_clients.len() + j) as u64;
            ded_be_tput
                .push(dedicated(tr, id, c.clone(), &be_tables[j], &rc)?.clients[0].throughput);
        }

        let mut cells = Vec::new();
        for (hp, hp_client) in hp_clients.iter().enumerate() {
            for (be, be_client) in be_clients.iter().enumerate() {
                cells.push(Cell {
                    hp,
                    be,
                    clients: vec![hp_client.clone(), be_client.clone()],
                    profiles: vec![Some(hp_tables[hp].clone()), Some(be_tables[be].clone())],
                });
            }
        }
        Ok(Prepared {
            rc,
            arrivals,
            ded_p99,
            ded_be_tput,
            cells,
        })
    }

    fn run(&self, prep: Prepared, tr: &mut Tracer) -> RepOutput {
        let Prepared {
            rc,
            arrivals,
            ded_p99,
            ded_be_tput,
            cells,
        } = prep;
        let mut out = RepOutput::default();
        let mut d = Digest::default();
        for p in &ded_p99 {
            d.eat(p.as_nanos());
        }
        for t in &ded_be_tput {
            d.eat_f64(*t);
        }
        let n_cells = cells.len();
        let (mut slowdown, mut be_norm) = (0.0, 0.0);
        for (id, cell) in cells.into_iter().enumerate() {
            let id = id as u64;
            out.sim_s += rc.horizon.as_secs_f64();
            let res = tr.span("world.run", id, |_| {
                run_collocation_with_profiles(
                    PolicyKind::orion_default(),
                    cell.clients,
                    cell.profiles,
                    &rc,
                )
            });
            let r = match res {
                Ok(r) => r,
                Err(e) => {
                    out.check(false, || format!("colloc cell {id}: {e}"));
                    continue;
                }
            };
            let (hp, be) = (&r.clients[0], &r.clients[1]);
            let limit = ded_p99[cell.hp].mul_f64(SLO_FACTOR);
            let w = hp_window(&arrivals[cell.hp], hp.latency.samples(), limit);
            out.check(!w.latencies.is_empty(), || {
                format!("colloc cell {id}: no HP completions")
            });
            out.check(w.fifo, || {
                format!("colloc cell {id}: HP completions not in arrival order")
            });
            out.good += w.good;
            out.due += w.due;
            let cell_p99 = p99(tr, id, &w.latencies);
            slowdown += cell_p99.as_secs_f64() / ded_p99[cell.hp].as_secs_f64();
            be_norm += be.throughput / ded_be_tput[cell.be];
            for s in hp.latency.samples() {
                d.eat(s.as_nanos());
            }
            d.eat(be.completed);
            d.eat_f64(be.throughput);
        }
        out.hp_p99_slowdown = slowdown / n_cells as f64;
        out.be_norm_tput = be_norm / n_cells as f64;
        d.eat(out.good);
        d.eat(out.due);
        out.digest = d.0;
        out
    }

    /// `world.ops` (device spans per rep, from traced runs of every cell)
    /// and `engine.replay_ns_per_op` (the same kernel mix replayed through
    /// the bare `GpuEngine` API, median of three passes).
    fn extras(&self, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
        let prep = self.setup(seed, &mut Tracer::new(false))?;
        let mut rc = prep.rc.clone();
        rc.record_trace = true;
        let mut ops = 0u64;
        let mut mix = Vec::new();
        for cell in &prep.cells {
            let r = run_collocation_with_profiles(
                PolicyKind::orion_default(),
                cell.clients.clone(),
                cell.profiles.clone(),
                &rc,
            )
            .map_err(|e| format!("traced colloc cell: {e}"))?;
            ops += r.trace.as_ref().map_or(0, |t| t.len() as u64);
            let requests = r.clients[0].latency.len() as u64;
            mix.push((
                &cell.clients[0].workload,
                requests,
                &cell.clients[1].workload,
                r.clients[1].completed,
            ));
        }
        let mut per_op = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let mut replayed = 0;
            for &(hp, n_hp, be, n_be) in &mix {
                replayed += replay(hp, n_hp, be, n_be)?;
            }
            per_op.push(t0.elapsed().as_nanos() as f64 / replayed.max(1) as f64);
        }
        Ok(vec![
            ("world.ops", ops as f64),
            ("engine.replay_ns_per_op", crate::median(&per_op)),
        ])
    }
}

fn submit_all(e: &mut GpuEngine, s: StreamId, job: &Job) -> Result<u64, String> {
    for (_, op) in &job.ops {
        let r = match op {
            OpSpec::Kernel(k) => e.submit_kernel(s, k),
            &OpSpec::H2D { bytes, blocking } => e.submit(s, OpKind::MemcpyH2D { bytes, blocking }),
            &OpSpec::D2H { bytes, blocking } => e.submit(s, OpKind::MemcpyD2H { bytes, blocking }),
        };
        r.map_err(|e| format!("replay submit: {e}"))?;
    }
    Ok(job.ops.len() as u64)
}

/// Replays `n_hp` HP requests and `n_be` BE iterations on a high- and a
/// default-priority stream: each stream gets its next request's ops as soon
/// as it drains, and the engine steps event by event as the world drives it.
/// Returns the number of ops completed.
fn replay(hp: &Job, n_hp: u64, be: &Job, n_be: u64) -> Result<u64, String> {
    let mut e = GpuEngine::new(orion_gpu::spec::GpuSpec::v100_16gb(), false);
    let streams = [
        (e.create_stream(StreamPriority::HIGH), hp),
        (e.create_stream(StreamPriority::DEFAULT), be),
    ];
    let mut left = [n_hp, n_be];
    let (mut submitted, mut done) = (0u64, 0u64);
    let mut buf = Vec::new();
    loop {
        for (i, &(s, job)) in streams.iter().enumerate() {
            if left[i] > 0 && e.stream_depth(s).map_err(|e| e.to_string())? == 0 {
                left[i] -= 1;
                submitted += submit_all(&mut e, s, job)?;
            }
        }
        let Some(t) = e.next_event_time() else { break };
        e.advance_to(t);
        e.drain_completions_into(&mut buf);
        done += buf.len() as u64;
        buf.clear();
    }
    if done != submitted || left != [0, 0] {
        return Err(format!("engine replay completed {done} of {submitted} ops"));
    }
    Ok(done)
}
