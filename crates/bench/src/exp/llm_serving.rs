//! LLM continuous-batching serving grid (paper §7 discussion, DESIGN.md §17).
//!
//! Not a figure from the paper — the paper's §7 flags LLM token generation
//! as the ideal Orion collocation candidate (memory-bound decode
//! underutilizes SMs) and this grid closes the loop. Six cells drive the
//! serving subsystem (`orion_core::serving`):
//!
//! * `serial` — `max_batch = 1`: every request decodes alone. The
//!   continuous-batching baseline (denominator of the tokens/sec win).
//! * `batched` — continuous batching at the default `max_batch`, serving
//!   alone. Shows the ≥2x tokens/sec gain at bounded per-token p99.
//! * `orion` / `mps` / `temporal` — serving collocated with a best-effort
//!   ResNet-50 training client under each policy (the collocation world's
//!   `PolicyKind`s; `orion` is `OrionConfig::serving()`). Orion holds the
//!   per-token SLO while sustaining most of MPS's best-effort throughput;
//!   MPS violates the SLO; temporal starves the trainer.
//! * `constrained` — a device cut down to a sliver of KV headroom at a
//!   hotter request rate: admission defers, the ledger fills to (never
//!   past) capacity, and evictions fire.
//!
//! Comparable cells share one request trace (same seed/rate), so the
//! serial-vs-batched and policy comparisons are trace-for-trace. Cells fan
//! across the shared deterministic [`Runner`]; each cell is a pure function
//! of its config, so the grid is byte-identical at any thread count (the
//! `llm_serving` arm of the determinism test).
//!
//! With `ORION_JSONL` set, each cell appends one line carrying an
//! `llm_serving` block; the block is only ever emitted by this grid, so
//! other experiments' JSONL is unchanged.

use orion_core::prelude::*;
use orion_json::{json, Value};
use orion_workloads::arrivals::ArrivalProcess;
use orion_workloads::model::ModelKind;
use orion_workloads::models::llm::{kv_cache_bytes, llm_weight_bytes};
use orion_workloads::registry::training_workload;

use crate::exp::ExpConfig;
use crate::runner::{maybe_append_jsonl_values, Runner};
use crate::table::{f2, TextTable};

/// One serving cell: a named configuration and its report.
#[derive(Debug)]
pub struct Cell {
    /// Cell label: `serial`, `batched`, `orion`, `mps`, `temporal`,
    /// `constrained`.
    pub name: &'static str,
    /// The serving report.
    pub report: ServingReport,
}

/// Base serving configuration for the grid (full or fast horizon).
pub fn base_config(cfg: &ExpConfig) -> ServingConfig {
    let mut sc = if cfg.fast {
        ServingConfig::quick_test()
    } else {
        ServingConfig::paper_default()
    };
    sc.seed = cfg.seed;
    sc
}

/// The best-effort trainer collocated in the policy cells.
pub fn be_client() -> ClientSpec {
    ClientSpec::best_effort(
        training_workload(ModelKind::ResNet50),
        ArrivalProcess::ClosedLoop,
    )
}

/// The constrained-memory cell: KV headroom cut to `ctx_tokens` tokens of
/// context over the weights, at a hotter request rate, so admission gating
/// and evictions must fire.
pub fn constrained_config(cfg: &ExpConfig) -> ServingConfig {
    let mut sc = base_config(cfg);
    let (ctx_tokens, rps) = if cfg.fast { (448, 4.0) } else { (1024, 3.0) };
    sc.spec.memory_capacity = llm_weight_bytes() + kv_cache_bytes(ctx_tokens);
    sc.rps = rps;
    sc
}

/// The six grid cells, in table order.
pub fn cell_configs(cfg: &ExpConfig) -> Vec<(&'static str, ServingConfig)> {
    let base = base_config(cfg);
    let mut serial = base.clone();
    serial.max_batch = 1;
    vec![
        ("serial", serial),
        ("batched", base.clone()),
        (
            "orion",
            base.clone()
                .with_policy(ServingPolicy::orion_default())
                .with_be(be_client()),
        ),
        (
            "mps",
            base.clone().with_policy(PolicyKind::Mps).with_be(be_client()),
        ),
        (
            "temporal",
            base.with_policy(PolicyKind::Temporal).with_be(be_client()),
        ),
        ("constrained", constrained_config(cfg)),
    ]
}

/// Runs the serving grid on an explicit runner (determinism-test entry).
///
/// # Errors
///
/// The first cell's [`ServingError`] — impossible configurations surface as
/// typed errors, not panics.
pub fn run_llm_serving_on(
    runner: &Runner,
    cfg: &ExpConfig,
) -> Result<Vec<Cell>, ServingError> {
    let results = runner.map(cell_configs(cfg), |_, (name, sc)| {
        (name, run_serving(&sc))
    });
    results
        .into_iter()
        .map(|(name, res)| res.map(|report| Cell { name, report }))
        .collect()
}

/// The `llm_serving` JSONL block for one cell.
pub fn llm_serving_json(cfg: &ExpConfig, cell: &mut Cell) -> Value {
    let r = &mut cell.report;
    let block = json!({
        "cell": cell.name,
        "policy": r.policy,
        "arrived": r.arrived,
        "admitted": r.admitted,
        "completed": r.completed,
        "shed_queue": r.shed_queue,
        "shed_oversized": r.shed_oversized,
        "dropped_evicted": r.dropped_evicted,
        "evictions": r.evictions,
        "deferred_kv": r.deferred_kv,
        "deferred_slo": r.deferred_slo,
        "deferred_batch": r.deferred_batch,
        "joins": r.joins,
        "joins_mid": r.joins_mid,
        "leaves": r.leaves,
        "leaves_mid": r.leaves_mid,
        "decode_steps": r.decode_steps,
        "prefill_steps": r.prefill_steps,
        "peak_batch": u64::from(r.peak_batch),
        "mean_batch": r.mean_batch,
        "tokens_generated": r.tokens_generated,
        "tokens_per_sec": r.tokens_per_sec,
        "ttft_p50_ms": r.ttft.p50().as_millis_f64(),
        "ttft_p99_ms": r.ttft.p99().as_millis_f64(),
        "per_token_p50_ms": r.per_token.p50().as_millis_f64(),
        "per_token_p99_ms": r.per_token.p99().as_millis_f64(),
        "itl_p99_ms": r.itl.p99().as_millis_f64(),
        "e2e_p99_ms": r.e2e.p99().as_millis_f64(),
        "kv_peak_bytes": r.kv_peak_bytes,
        "kv_budget_bytes": r.kv_budget_bytes,
        "ledger_high_water": r.ledger_high_water,
        "ledger_capacity": r.ledger_capacity,
        "be_completed": r.be_completed,
        "be_tput": r.be_tput,
    });
    json!({
        "seed": cfg.seed,
        "llm_serving": block,
    })
}

/// Runs the serving grid and emits its JSONL lines.
///
/// # Panics
///
/// Panics when a cell fails — grid configurations are fixed here, so a
/// [`ServingError`] is a bug, not an input problem.
pub fn run(cfg: &ExpConfig) -> Vec<Cell> {
    let runner = Runner::from_env().with_progress(false);
    let mut cells = run_llm_serving_on(&runner, cfg)
        .unwrap_or_else(|e| panic!("llm_serving cell failed: {e}"));
    let lines: Vec<Value> = cells
        .iter_mut()
        .map(|c| llm_serving_json(cfg, c))
        .collect();
    maybe_append_jsonl_values(&lines);
    cells
}

/// Prints the serving grid.
pub fn print(cells: &mut [Cell]) {
    println!("# LLM continuous-batching serving: prefill/decode, KV pressure, SLO admission");
    println!("# (per-token = decode-step service time; itl = inter-token gap incl. prefill stalls)");
    let mut t = TextTable::new(vec![
        "cell",
        "policy",
        "arr",
        "done",
        "tok/s",
        "mean-b",
        "ttft-p99-ms",
        "ptok-p99-ms",
        "itl-p99-ms",
        "joins(mid)",
        "evict",
        "def-kv",
        "def-slo",
        "be/s",
    ]);
    for c in cells.iter_mut() {
        let r = &mut c.report;
        t.row(vec![
            c.name.to_string(),
            r.policy.to_string(),
            r.arrived.to_string(),
            r.completed.to_string(),
            f2(r.tokens_per_sec),
            f2(r.mean_batch),
            f2(r.ttft.p99().as_millis_f64()),
            f2(r.per_token.p99().as_millis_f64()),
            f2(r.itl.p99().as_millis_f64()),
            format!("{}({})", r.joins, r.joins_mid),
            r.evictions.to_string(),
            r.deferred_kv.to_string(),
            r.deferred_slo.to_string(),
            f2(r.be_tput),
        ]);
    }
    print!("{}", t.render());
}
