//! `llm_serving`: continuous-batching LLM serving over a 120 s horizon in
//! two cells: collocated with a BE ResNet50 trainer under
//! `ServingPolicy::orion_default()`, and serving alone on a device cut down
//! to ~1k tokens of KV headroom at a hotter rate, so admission defers and
//! evicts.

use orion_core::prelude::*;
use orion_core::serving::generate_requests;
use orion_core::world::run_dedicated;
use orion_desim::time::SimTime;
use orion_workloads::models::llm::{kv_cache_bytes, llm_weight_bytes};
use orion_workloads::{training_workload, ArrivalProcess, ModelKind};

use crate::trace::Tracer;
use crate::{Digest, RepOutput, Workload};

const HORIZON: SimTime = SimTime::from_secs(120);

pub struct LlmServing;

pub struct Prepared {
    /// `(cell config, requests generated for it)`.
    cells: Vec<(ServingConfig, u64)>,
    /// Per-token p99 of the collocated cell's trace served alone.
    alone_p99: SimTime,
    /// The BE trainer's dedicated-GPU throughput over the same horizon.
    ded_be_tput: f64,
}

impl Workload for LlmServing {
    type Prepared = Prepared;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Prepared, String> {
        let mut base = ServingConfig::paper_default().with_seed(seed);
        base.horizon = HORIZON;
        let be = tr.span("workloads.build", 0, |_| {
            ClientSpec::best_effort(
                training_workload(ModelKind::ResNet50),
                ArrivalProcess::ClosedLoop,
            )
        });
        let orion = base
            .clone()
            .with_policy(ServingPolicy::orion_default())
            .with_be(be.clone());
        let mut constrained = base.clone();
        constrained.spec.memory_capacity = llm_weight_bytes() + kv_cache_bytes(1024);
        constrained.rps = 3.0;

        let mut cells = Vec::new();
        for (i, cfg) in [orion, constrained].into_iter().enumerate() {
            let n = tr.span("serving.requests", i as u64, |_| {
                generate_requests(&cfg).len() as u64
            });
            cells.push((cfg, n));
        }

        let mut rc = RunConfig::paper_default().with_seed(seed);
        rc.horizon = base.horizon;
        rc.warmup = base.warmup;
        let ded = tr
            .span("world.dedicated", 0, |_| run_dedicated(be, &rc))
            .map_err(|e| format!("dedicated BE reference: {e}"))?;
        let mut alone = tr
            .span("serving.alone", 0, |_| run_serving(&base))
            .map_err(|e| format!("served-alone reference: {e}"))?;
        let alone_p99 = tr.span("metrics.percentile", 0, |_| alone.per_token.p99());
        Ok(Prepared {
            cells,
            alone_p99,
            ded_be_tput: ded.clients[0].throughput,
        })
    }

    fn run(&self, prep: Prepared, tr: &mut Tracer) -> RepOutput {
        let mut out = RepOutput::default();
        let mut d = Digest::default();
        d.eat(prep.alone_p99.as_nanos());
        d.eat_f64(prep.ded_be_tput);
        let mut sum = ServingSums::default();
        for (id, (cfg, generated)) in prep.cells.iter().enumerate() {
            out.sim_s += cfg.horizon.as_secs_f64();
            let res = tr.span("serving.run", id as u64, |_| run_serving(cfg));
            let mut r = match res {
                Ok(r) => r,
                Err(e) => {
                    out.check(false, || format!("serving cell {id}: {e}"));
                    continue;
                }
            };
            out.check(r.arrived == *generated, || {
                format!("cell {id}: {} arrived, {generated} generated", r.arrived)
            });
            out.check(r.ledger_high_water <= r.ledger_capacity, || {
                format!(
                    "cell {id}: ledger high water {} > capacity {}",
                    r.ledger_high_water, r.ledger_capacity
                )
            });
            let ended = r.completed + r.shed_queue + r.shed_oversized + r.dropped_evicted;
            out.check(ended <= r.arrived, || {
                format!("cell {id}: {ended} requests ended of {} arrived", r.arrived)
            });
            let recorded = r.e2e.len() as u64;
            out.check(recorded <= r.completed, || {
                format!(
                    "cell {id}: {recorded} e2e samples > {} completed",
                    r.completed
                )
            });
            // `e2e` holds the requests that completed at or after warmup;
            // the ones due in the window are all arrivals except those that
            // completed before it. A request is good when it finished within
            // its worst-case SLO envelope: TTFT plus the per-token objective
            // for the longest output.
            let limit = cfg.slo.ttft + cfg.slo.per_token * u64::from(cfg.output_tokens.1);
            out.due += r
                .arrived
                .saturating_sub(r.completed.saturating_sub(recorded));
            out.good += r.e2e.samples().iter().filter(|&&l| l <= limit).count() as u64;

            if cfg.be.is_some() {
                let p99 = tr.span("metrics.percentile", id as u64, |_| r.per_token.p99());
                out.hp_p99_slowdown = p99.as_secs_f64() / prep.alone_p99.as_secs_f64();
                out.be_norm_tput = r.be_tput / prep.ded_be_tput;
                d.eat(p99.as_nanos());
            }
            sum.add(&r);
            for x in [
                r.arrived,
                r.admitted,
                r.completed,
                r.shed_queue,
                r.shed_oversized,
                r.dropped_evicted,
                r.evictions,
                r.deferred_kv,
                r.deferred_slo,
                r.deferred_batch,
                r.decode_steps,
                r.prefill_steps,
                r.tokens_generated,
                r.be_completed,
                r.kv_peak_bytes,
                r.ledger_high_water,
            ] {
                d.eat(x);
            }
            for s in r.e2e.samples() {
                d.eat(s.as_nanos());
            }
        }
        out.counters = sum.counters();
        d.eat(out.good);
        d.eat(out.due);
        out.digest = d.0;
        out
    }
}

/// Serving-layer counters over both cells.
#[derive(Default)]
struct ServingSums {
    arrived: u64,
    admitted: u64,
    tokens: u64,
    decode_steps: u64,
    prefill_steps: u64,
    deferred: u64,
    evictions: u64,
    batch_sum: f64,
    kv_peak_frac: f64,
}

impl ServingSums {
    fn add(&mut self, r: &ServingReport) {
        self.arrived += r.arrived;
        self.admitted += r.admitted;
        self.tokens += r.tokens_generated;
        self.decode_steps += r.decode_steps;
        self.prefill_steps += r.prefill_steps;
        self.deferred += r.deferred_kv + r.deferred_slo + r.deferred_batch;
        self.evictions += r.evictions;
        self.batch_sum += r.mean_batch * r.decode_steps as f64;
        if r.kv_budget_bytes > 0 {
            self.kv_peak_frac = self
                .kv_peak_frac
                .max(r.kv_peak_bytes as f64 / r.kv_budget_bytes as f64);
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let frac = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
        vec![
            ("serving.tokens", self.tokens as f64),
            ("serving.decode_steps", self.decode_steps as f64),
            ("serving.prefill_steps", self.prefill_steps as f64),
            (
                "serving.admit_frac",
                frac(self.admitted as f64, self.arrived),
            ),
            ("serving.deferred", self.deferred as f64),
            ("serving.evictions", self.evictions as f64),
            (
                "serving.recompute_frac",
                frac(self.evictions as f64, self.admitted),
            ),
            (
                "serving.mean_batch",
                frac(self.batch_sum, self.decode_steps),
            ),
            ("memory.kv_peak_frac", self.kv_peak_frac),
        ]
    }
}
