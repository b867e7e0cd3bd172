//! `fleet`: `FleetSim` at 128 GPUs, 1000 jobs and 6 one-second epochs in
//! online+migration mode, with the `FleetFaultPlan` chaos plan armed. The
//! harness drives the control plane itself (`next_epoch` → each episode →
//! `absorb`), so every episode's `RunResult` is seen before it is absorbed.

use std::collections::BTreeMap;

use orion_core::cluster::{dedicated_ref_inputs, FleetFaultPlan};
use orion_core::prelude::*;
use orion_core::world::run_dedicated;
use orion_core::ClientPriority;
use orion_desim::rng::{cell_seed, DetRng};
use orion_desim::time::SimTime;
use orion_metrics::LatencyRecorder;
use orion_workloads::ArrivalProcess;

use crate::trace::Tracer;
use crate::{Digest, RepOutput, Workload, SLO_FACTOR};

const GPUS: usize = 128;
const JOBS: usize = 1000;
const EPOCHS: usize = 6;

pub struct Fleet;

/// What the harness keeps of each trace job (the trace itself moves into
/// the `FleetSim`).
struct JobInfo {
    hp: bool,
    rps: f64,
    arrive: SimTime,
    depart: SimTime,
    label: String,
}

pub struct Prepared {
    sim: FleetSim,
    jobs: Vec<JobInfo>,
    /// Dedicated-GPU HP p99 per workload label over a 12 s run: the
    /// latency reference of `goodput_frac` and `hp_p99_slowdown`. (The
    /// fleet's own one-epoch references hold a few dozen samples each, so
    /// their p99 swings with the seed.)
    ref_p99: BTreeMap<String, SimTime>,
    epoch: SimTime,
}

fn config(seed: u64) -> FleetConfig {
    let mut fc = FleetConfig::new(GPUS, EPOCHS);
    fc.rc.seed = seed;
    fc.online = true;
    fc.migration = true;
    fc.faults = Some(FleetFaultPlan::new(seed));
    fc
}

/// Number of arrivals the world schedules for client `slot` of an episode:
/// the same per-client fork of the run seed the world draws them from.
fn episode_arrivals(spec: &EpisodeSpec, slot: usize) -> u64 {
    let mut rng = DetRng::new(spec.rc.seed);
    for (i, c) in spec.clients.iter().enumerate() {
        if c.arrivals.is_closed_loop() {
            continue;
        }
        let mut crng = rng.fork(i as u64 + 1);
        if i == slot {
            return c.arrivals.schedule(spec.rc.horizon, &mut crng).len() as u64;
        }
    }
    0
}

/// Layer counters summed from each episode's `RunResult` before `absorb`.
#[derive(Default)]
struct EpisodeSums {
    admissions: u64,
    demotions: u64,
    unknown_ops: u64,
    kernel_ops: u64,
    device_faults: u64,
    resubmitted: u64,
}

impl Workload for Fleet {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Prepared, String> {
        let fc = config(seed);
        let trace = tr.span("cluster.trace", 0, |_| {
            let mut tc = FleetTraceConfig::new(JOBS, fc.horizon());
            tc.seed = seed;
            FleetTrace::synthesize(&tc)
        });
        let jobs = trace
            .jobs
            .iter()
            .map(|j| JobInfo {
                hp: j.client.priority == ClientPriority::HighPriority,
                rps: match j.client.arrivals {
                    ArrivalProcess::Poisson { rps } => rps,
                    _ => 0.0,
                },
                arrive: j.arrive,
                depart: j.depart,
                label: j.client.workload.label(),
            })
            .collect();
        let mut dedicated = BTreeMap::new();
        let mut ref_p99 = BTreeMap::new();
        for (i, (label, client, rc)) in dedicated_ref_inputs(&trace, &fc).into_iter().enumerate() {
            let hp = client.priority == ClientPriority::HighPriority;
            let long_rc = RunConfig::paper_default().with_seed(cell_seed(seed, i as u64));
            let long = hp.then(|| client.clone());
            let mut r = tr
                .span("world.dedicated", i as u64, |_| run_dedicated(client, &rc))
                .map_err(|e| format!("dedicated reference {label}: {e}"))?;
            let p99 = tr.span("metrics.percentile", i as u64, |_| {
                r.clients[0].latency.p99()
            });
            let throughput = r.clients[0].throughput;
            if let Some(client) = long {
                let mut r = tr
                    .span("world.dedicated", i as u64, |_| {
                        run_dedicated(client, &long_rc)
                    })
                    .map_err(|e| format!("12 s dedicated reference {label}: {e}"))?;
                let p99 = tr.span("metrics.percentile", i as u64, |_| {
                    r.clients[0].latency.p99()
                });
                ref_p99.insert(label.clone(), p99);
            }
            dedicated.insert(label, DedicatedRef { throughput, p99 });
        }
        let epoch = fc.epoch;
        let sim = tr
            .span("cluster.new", 0, |_| FleetSim::new(trace, fc, dedicated))
            .map_err(|e| format!("FleetSim::new: {e}"))?;
        Ok(Prepared {
            sim,
            jobs,
            ref_p99,
            epoch,
        })
    }

    fn run(&self, prep: Prepared, tr: &mut Tracer) -> RepOutput {
        let Prepared {
            mut sim,
            jobs,
            ref_p99,
            epoch,
        } = prep;
        let mut out = RepOutput::default();
        let mut sums = EpisodeSums::default();
        // Per job: whether it was in any episode, and its successful episodes.
        let mut ran = vec![false; jobs.len()];
        let mut ok_epochs = vec![0u64; jobs.len()];
        // Every recorded HP latency, pooled per workload label.
        let mut hp_latency: BTreeMap<&str, LatencyRecorder> = BTreeMap::new();
        let (mut episodes, mut errors) = (0u64, 0u64);
        // Requests an HP job would have received in one episode's window.
        let window = epoch - epoch / 5;
        let limit = |label: &str| {
            ref_p99
                .get(label)
                .map_or(SimTime::ZERO, |p| p.mul_f64(SLO_FACTOR))
        };
        let mut e = 0usize;
        while let Some(specs) = tr.span("cluster.next_epoch", e as u64, |_| sim.next_epoch()) {
            let results: Vec<_> = specs
                .into_iter()
                .map(|s| {
                    let r = tr.span("world.episode", e as u64, |_| s.run());
                    (s, r)
                })
                .collect();
            let mut resident = vec![false; jobs.len()];
            for (s, res) in &results {
                episodes += 1;
                out.sim_s += s.rc.horizon.as_secs_f64();
                out.check(s.epoch == e, || {
                    format!("episode of epoch {} in epoch {e}", s.epoch)
                });
                for &j in &s.jobs {
                    ran[j] = true;
                    resident[j] = true;
                }
                let hp_slots: Vec<usize> =
                    (0..s.jobs.len()).filter(|&i| jobs[s.jobs[i]].hp).collect();
                out.check(hp_slots.len() <= 1, || {
                    format!("gpu {} epoch {e}: {} HP jobs", s.gpu, hp_slots.len())
                });
                let r = match res {
                    Ok(r) => r,
                    Err(_) => {
                        // A failed episode's HP requests all count as misses.
                        errors += 1;
                        out.due += hp_slots
                            .iter()
                            .map(|&i| episode_arrivals(s, i))
                            .sum::<u64>();
                        continue;
                    }
                };
                for &j in &s.jobs {
                    ok_epochs[j] += 1;
                }
                let online = r.online.as_ref();
                if let Some(o) = online {
                    sums.admissions += o.admissions;
                    sums.demotions += o.demotions;
                    sums.kernel_ops += o.clean_samples + o.interfered_samples;
                }
                sums.unknown_ops += r.robustness.unknown_kernel_ops;
                sums.device_faults += r.robustness.device_faults;
                sums.resubmitted += r.robustness.resubmitted_ops;
                for &slot in &hp_slots {
                    // The online tuner sees every HP completion, warmup
                    // included; the recorded samples are the ones at or after
                    // the episode's warmup. Requests that did not complete
                    // before the warmup ended are the ones due in the window.
                    let c = &r.clients[slot];
                    let arrivals = episode_arrivals(s, slot);
                    let total = online.map_or(0, |o| {
                        o.clean_latency_samples + o.contaminated_latency_samples
                    });
                    let recorded = c.latency.len() as u64;
                    let consistent = online.is_some() && recorded <= total && total <= arrivals;
                    out.check(consistent, || {
                        format!("gpu {} epoch {e}: {recorded} recorded / {total} completed / {arrivals} arrived", s.gpu)
                    });
                    if !consistent {
                        continue;
                    }
                    let label = jobs[s.jobs[slot]].label.as_str();
                    let lim = limit(label);
                    out.due += arrivals - (total - recorded);
                    out.good += c.latency.samples().iter().filter(|&&l| l <= lim).count() as u64;
                    let pool = hp_latency.entry(label).or_default();
                    for &l in c.latency.samples() {
                        pool.record(l);
                    }
                }
            }
            // Live HP jobs with no episode this epoch (never placed, waiting
            // for evacuation, or shed) miss every request they were due.
            let t = epoch * e as u64;
            for (j, info) in jobs.iter().enumerate() {
                if info.hp && !resident[j] && info.arrive <= t && t < info.depart {
                    out.due += (info.rps * window.as_secs_f64()).round() as u64;
                }
            }
            tr.span("cluster.absorb", e as u64, |_| sim.absorb(results));
            e += 1;
        }
        let report = tr.span("cluster.report", 0, |_| sim.into_report());

        // The control plane counts a job as placed when it is packed onto a
        // GPU; a best-effort job can be preempted by an HP job at the same
        // boundary and so be placed without ever running an episode.
        let n_placed = report.jobs.iter().filter(|j| j.ever_placed).count();
        let ids_ok = report.jobs.len() == jobs.len()
            && report.jobs.iter().enumerate().all(|(i, j)| j.job == i);
        out.check(ids_ok, || {
            "report jobs are not the trace's, in id order".into()
        });
        if ids_ok {
            for (j, rj) in report.jobs.iter().enumerate() {
                out.check(rj.resident_epochs == ok_epochs[j], || {
                    format!(
                        "job {j}: report counts {} resident epochs, {} episodes ran",
                        rj.resident_epochs, ok_epochs[j]
                    )
                });
                out.check(rj.ever_placed || !ran[j], || {
                    format!("job {j} ran an episode but the report never placed it")
                });
            }
        }
        out.check(errors == report.episode_errors, || {
            format!(
                "{errors} failed episodes seen, report counts {}",
                report.episode_errors
            )
        });
        out.check(jobs.len() == n_placed + report.never_placed, || {
            format!(
                "{} jobs != {n_placed} placed + {} never placed",
                jobs.len(),
                report.never_placed
            )
        });

        // HP slowdown: each model's p99 over all its requests in the fleet
        // against its dedicated p99, averaged over models. BE: the mean
        // normalized throughput over all BE jobs (never placed counts 0).
        let mut slowdown = Vec::new();
        for (label, lat) in &mut hp_latency {
            let p99 = tr.span("metrics.percentile", 0, |_| lat.p99());
            if let Some(r) = ref_p99.get(*label) {
                slowdown.push(p99.as_secs_f64() / r.as_secs_f64());
            }
        }
        out.hp_p99_slowdown = slowdown.iter().sum::<f64>() / slowdown.len() as f64;
        let be: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| !j.hp)
            .map(|j| j.normalized)
            .collect();
        out.be_norm_tput = be.iter().sum::<f64>() / be.len() as f64;

        let rob = &report.robustness;
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.counters = vec![
            ("cluster.epochs", e as f64),
            (
                "cluster.placed_frac",
                frac(n_placed as u64, jobs.len() as u64),
            ),
            ("cluster.migrations", report.migrations as f64),
            ("cluster.evacuations", rob.evacuations as f64),
            (
                "cluster.evac_recovered_frac",
                frac(rob.evacuations_recovered, rob.evacuations),
            ),
            ("online.admissions", sums.admissions as f64),
            ("online.demotions", sums.demotions as f64),
            (
                "online.unknown_op_frac",
                frac(sums.unknown_ops, sums.kernel_ops),
            ),
            ("supervisor.device_faults", sums.device_faults as f64),
            (
                "supervisor.resubmit_frac",
                frac(sums.resubmitted, sums.kernel_ops),
            ),
        ];

        let mut d = Digest::default();
        d.eat(report.jobs_digest());
        for x in [
            episodes,
            errors,
            report.never_placed as u64,
            rob.gpus_dead,
            rob.quarantines,
            rob.evacuations,
            rob.evacuations_recovered,
            rob.be_lost,
            rob.hp_rejected,
            sums.admissions,
            sums.demotions,
            sums.unknown_ops,
            sums.device_faults,
            sums.resubmitted,
            out.good,
            out.due,
            out.hp_p99_slowdown.to_bits(),
        ] {
            d.eat(x);
        }
        out.digest = d.0;
        out
    }
}
