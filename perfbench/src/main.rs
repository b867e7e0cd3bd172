//! End-to-end and per-layer benchmark of the Orion simulator.
//!
//! ```text
//! orion-perfbench --workload <colloc|fleet|llm_serving> --seed <n> \
//!     --seconds <s> --trace <0|1> [--spans-out <file.jsonl>]
//! ```
//!
//! One process, one thread. Each repetition ("rep") sets the workload up
//! from the seed, then runs its timed section; reps repeat until `--seconds`
//! of host time are spent. Every rep of one seed must produce the same
//! output digest. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` reps alternate untraced and traced,
//! and it carries the per-layer metrics computed from the traced reps'
//! spans. See `README.md` for the workloads and metric definitions.

mod colloc;
mod fleet;
mod serving;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use trace::{Probe, Tracer};

/// HP latency limit, as a multiple of the client's dedicated p99 (the fleet
/// control plane's own HP SLO factor).
pub const SLO_FACTOR: f64 = 2.0;

/// What one rep's timed section produced.
#[derive(Debug, Default)]
pub struct RepOutput {
    /// Simulated GPU-seconds covered by the timed section.
    pub sim_s: f64,
    /// Digest of every simulated output of the rep.
    pub digest: u64,
    /// HP requests completed within the latency limit (subset of `due`).
    pub good: u64,
    /// HP requests due in the measured window.
    pub due: u64,
    /// HP p99 over the dedicated (or served-alone) p99.
    pub hp_p99_slowdown: f64,
    /// BE throughput over its dedicated throughput.
    pub be_norm_tput: f64,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed; each reason goes to stderr.
    pub failures: Vec<String>,
    /// Per-layer counters read from the simulated outputs.
    pub counters: Vec<(&'static str, f64)>,
}

impl RepOutput {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// `good / due` (NaN when nothing was due).
    pub fn goodput_frac(&self) -> f64 {
        self.good as f64 / self.due as f64
    }
}

/// One benchmark workload: set-up (untimed for `sim_s_per_s`) and a timed
/// section that consumes what set-up built.
pub trait Workload {
    /// Inputs built by set-up.
    type Prepared;
    /// Builds the inputs for `seed`.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Result<Self::Prepared, String>;
    /// Runs the timed section.
    fn run(&self, prep: Self::Prepared, tr: &mut Tracer) -> RepOutput;
    /// Per-layer counters that need extra untimed runs (traced mode only).
    fn extras(&self, _seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("{k}: {e}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        spans_out: kv.get("--spans-out").cloned(),
    })
}

/// One finished rep.
struct Rep {
    traced: bool,
    setup_s: f64,
    run_s: f64,
    wall_ns: u64,
    out: RepOutput,
    tracer: Tracer,
}

/// Host seconds since `t0`, less the calibration time spent since `probe0`.
fn host_s(t0: Instant, tr: &Tracer, probe0: u64) -> f64 {
    (t0.elapsed().as_nanos() as u64 - (tr.probe.spent_ns - probe0)) as f64 / 1e9
}

fn run_rep<W: Workload>(w: &W, seed: u64, traced: bool) -> Result<Rep, String> {
    let mut tr = Tracer::new(traced);
    let t0 = Instant::now();
    let (setup_s, run_s, out) = tr.span("harness.rep", 0, |tr| -> Result<_, String> {
        let prep = tr.span("harness.setup", 0, |tr| w.setup(seed, tr))?;
        let setup_s = host_s(t0, tr, 0);
        let (t1, probe1) = (Instant::now(), tr.probe.spent_ns);
        let out = tr.span("harness.run", 0, |tr| w.run(prep, tr));
        Ok((setup_s, host_s(t1, tr, probe1), out))
    })?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(Rep {
        traced,
        setup_s,
        run_s,
        wall_ns,
        out,
        tracer: tr,
    })
}

/// Reps until `seconds` of host time are spent: a rep starts only when it is
/// expected to end (at its predecessor's length) by the deadline, plus half a
/// rep of slack. Traced mode alternates untraced and traced reps and runs at
/// least one of each.
fn run_reps<W: Workload>(w: &W, a: &Args) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = a.trace && reps.len() % 2 == 1;
        let rep = run_rep(w, a.seed, traced)?;
        let last = rep.setup_s + rep.run_s;
        reps.push(rep);
        let need_more = a.trace && reps.len() < 2;
        if !need_more && start.elapsed().as_secs_f64() + 0.5 * last > a.seconds {
            return Ok(reps);
        }
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile, `q` in `[0, 1]`.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// FNV-1a over 64-bit words: the digest of a rep's simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a float in by its bits.
    pub fn eat_f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every per-layer metric, with its unit. Each workload reports all of
/// them; a layer the workload never calls reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("profiler.profile_s", "s"),
    ("profiler.calls", "count"),
    ("world.dedicated_s", "s"),
    ("world.run_s", "s"),
    ("world.runs", "count"),
    ("world.ops", "count"),
    ("world.ns_per_op", "ns"),
    ("engine.replay_ns_per_op", "ns"),
    ("metrics.percentile_s", "s"),
    ("cluster.trace_s", "s"),
    ("cluster.new_s", "s"),
    ("cluster.next_epoch_s", "s"),
    ("cluster.absorb_s", "s"),
    ("cluster.report_s", "s"),
    ("cluster.epochs", "count"),
    ("world.episode_s", "s"),
    ("world.episodes", "count"),
    ("world.episode_ms_p50", "ms"),
    ("world.episode_ms_p99", "ms"),
    ("cluster.placed_frac", "frac"),
    ("cluster.migrations", "count"),
    ("cluster.evacuations", "count"),
    ("cluster.evac_recovered_frac", "frac"),
    ("online.admissions", "count"),
    ("online.demotions", "count"),
    ("online.unknown_op_frac", "frac"),
    ("supervisor.device_faults", "count"),
    ("supervisor.resubmit_frac", "frac"),
    ("serving.requests_s", "s"),
    ("serving.alone_s", "s"),
    ("serving.run_s", "s"),
    ("serving.runs", "count"),
    ("serving.tokens", "count"),
    ("serving.ns_per_token", "ns"),
    ("serving.decode_steps", "count"),
    ("serving.prefill_steps", "count"),
    ("serving.admit_frac", "frac"),
    ("serving.deferred", "count"),
    ("serving.evictions", "count"),
    ("serving.recompute_frac", "frac"),
    ("serving.mean_batch", "count"),
    ("memory.kv_peak_frac", "frac"),
    ("harness.self_s", "s"),
    ("harness.probe_s", "s"),
    ("host.slowdown", "x"),
    ("trace.overhead_frac", "frac"),
];

/// Spans whose summed self time (per traced rep) is reported as `<name>_s`,
/// and whose count is reported under the paired name when one is given.
const SPAN_METRICS: &[(&str, &str, Option<&str>)] = &[
    ("workloads.build", "workloads.build_s", None),
    (
        "profiler.profile",
        "profiler.profile_s",
        Some("profiler.calls"),
    ),
    ("world.dedicated", "world.dedicated_s", None),
    ("world.run", "world.run_s", Some("world.runs")),
    ("metrics.percentile", "metrics.percentile_s", None),
    ("cluster.trace", "cluster.trace_s", None),
    ("cluster.new", "cluster.new_s", None),
    ("cluster.next_epoch", "cluster.next_epoch_s", None),
    ("cluster.absorb", "cluster.absorb_s", None),
    ("cluster.report", "cluster.report_s", None),
    ("world.episode", "world.episode_s", Some("world.episodes")),
    ("serving.requests", "serving.requests_s", None),
    ("serving.alone", "serving.alone_s", None),
    ("serving.run", "serving.run_s", Some("serving.runs")),
];

/// Per-layer metrics from the traced reps (means per traced rep), plus the
/// self-time accounting check. Returns the metrics and any check failures.
fn layer_metrics(
    reps: &[Rep],
    extras: &[(&'static str, f64)],
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|&(k, _)| (k, 0.0)).collect();
    let mut failures = Vec::new();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let n = traced.len() as f64;
    let mut episode_ms = Vec::new();
    for rep in &traced {
        let spans = rep.tracer.spans();
        let own = rep.tracer.self_ns();
        let mut harness_ns = 0u64;
        for (s, &self_ns) in spans.iter().zip(&own) {
            if s.name.starts_with("harness.") {
                harness_ns += self_ns;
            }
            if s.name == "world.episode" {
                episode_ms.push(s.dur_ns() as f64 / 1e6);
            }
            if let Some(&(_, secs, count)) = SPAN_METRICS.iter().find(|(n, _, _)| *n == s.name) {
                *m.get_mut(secs).expect("listed") += self_ns as f64 / 1e9 / n;
                if let Some(c) = count {
                    *m.get_mut(c).expect("listed") += 1.0 / n;
                }
            }
        }
        let probe_ns = rep.tracer.probe.spent_ns;
        *m.get_mut("harness.self_s").expect("listed") += (harness_ns - probe_ns) as f64 / 1e9 / n;
        *m.get_mut("harness.probe_s").expect("listed") += probe_ns as f64 / 1e9 / n;
        // Layer self times plus harness self time must account for the
        // traced wall time (they telescope to the root span).
        let accounted: u64 = own.iter().sum();
        let gap = rep.wall_ns.abs_diff(accounted) as f64 / rep.wall_ns.max(1) as f64;
        if gap > 0.01 {
            failures.push(format!(
                "span self times cover {accounted} ns of {} ns traced wall time",
                rep.wall_ns
            ));
        }
    }
    // Counters from the simulated outputs are identical across reps.
    if let Some(rep) = traced.first() {
        for &(k, v) in rep.out.counters.iter().chain(extras) {
            m.insert(k, v);
        }
    }
    if !episode_ms.is_empty() {
        m.insert("world.episode_ms_p50", percentile(&episode_ms, 0.5));
        m.insert("world.episode_ms_p99", percentile(&episode_ms, 0.99));
    }
    if m["world.ops"] > 0.0 {
        m.insert("world.ns_per_op", m["world.run_s"] * 1e9 / m["world.ops"]);
    }
    if m["serving.tokens"] > 0.0 {
        m.insert(
            "serving.ns_per_token",
            m["serving.run_s"] * 1e9 / m["serving.tokens"],
        );
    }
    let rate = |traced: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.out.sim_s / r.run_s)
            .collect();
        median(&v)
    };
    m.insert("trace.overhead_frac", rate(false) / rate(true) - 1.0);
    let samples: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.tracer.probe.samples.iter().copied())
        .collect();
    m.insert("host.slowdown", Probe::slowdown(&samples));
    (m, failures)
}

fn write_spans(path: &str, reps: &[Rep]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (ri, rep) in reps.iter().enumerate().filter(|(_, r)| r.traced) {
        for s in rep.tracer.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"rep\":{ri},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
    }
    f.flush()
}

fn bench<W: Workload>(w: &W, a: &Args) -> Result<(), String> {
    let extras = if a.trace {
        w.extras(a.seed)?
    } else {
        Vec::new()
    };
    let mut reps = run_reps(w, a)?;
    // Host times at the calibration probe's reference speed. Each rep (and
    // each extra set-up) is scaled by the probes taken during it, so host
    // speed drifting within a run cancels rep by rep; one with no probe of
    // its own takes the run's pooled slowdown.
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    // (unscaled set-up seconds, that set-up's probe samples)
    let mut setups: Vec<(f64, Vec<u64>)> = untraced
        .iter()
        .map(|r| (r.setup_s, r.tracer.probe.samples.clone()))
        .collect();
    // Set-up is the shortest quantity timed: report the median of at least
    // five (the extra set-ups are discarded after timing).
    while setups.len() < 5 {
        let mut tr = Tracer::new(false);
        let t0 = Instant::now();
        drop(w.setup(a.seed, &mut tr)?);
        setups.push((host_s(t0, &tr, 0), tr.probe.samples));
    }
    let pooled: Vec<u64> = setups.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    let slowdown = Probe::slowdown(&pooled);
    let slowdown_of = |samples: &[u64]| {
        if samples.is_empty() {
            slowdown
        } else {
            Probe::slowdown(samples)
        }
    };
    // (unscaled, scaled) sim_s_per_s of each untraced rep.
    let (rates, scaled_rates): (Vec<f64>, Vec<f64>) = untraced
        .iter()
        .map(|r| {
            let rate = r.out.sim_s / r.run_s;
            (rate, rate * slowdown_of(&r.tracer.probe.samples))
        })
        .unzip();

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let digest = reps[0].out.digest;
    for rep in &mut reps {
        attempted += rep.out.attempted + 1;
        failures.append(&mut rep.out.failures);
        if rep.out.digest != digest {
            failures.push(format!(
                "digest {:#018x} differs from the first rep's {digest:#018x}",
                rep.out.digest
            ));
        }
    }
    let first = &reps[0].out;
    let goodput = first.goodput_frac();
    attempted += 1;
    if !(0.0..=1.0).contains(&goodput) {
        failures.push(format!("goodput_frac {goodput} outside [0, 1]"));
    }

    let metrics: Vec<(&str, f64, &str)> = if a.trace {
        let (m, mut fails) = layer_metrics(&reps, &extras);
        attempted += reps.iter().filter(|r| r.traced).count() as u64;
        failures.append(&mut fails);
        if let Some(path) = &a.spans_out {
            write_spans(path, &reps).map_err(|e| format!("writing {path}: {e}"))?;
        }
        LAYER_METRICS.iter().map(|&(k, u)| (k, m[k], u)).collect()
    } else {
        let setup_s: Vec<f64> = setups.iter().map(|(t, _)| *t).collect();
        let scaled_setups: Vec<f64> = setups.iter().map(|(t, p)| t / slowdown_of(p)).collect();
        eprintln!(
            "perfbench: unscaled sim_s_per_s {:?} setup_s {:?}; host slowdown {slowdown:?} over {} probes",
            median(&rates),
            median(&setup_s),
            pooled.len()
        );
        vec![
            ("sim_s_per_s", median(&scaled_rates), "s/s"),
            ("setup_s", median(&scaled_setups), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("goodput_frac", goodput, "frac"),
            ("hp_p99_slowdown", first.hp_p99_slowdown, "x"),
            ("be_norm_tput", first.be_norm_tput, "x"),
        ]
    };
    for (k, v, _) in &metrics {
        attempted += 1;
        if !v.is_finite() {
            failures.push(format!("metric {k} is not finite"));
        }
    }

    eprintln!(
        "perfbench: {} seed {} reps {} (traced {}) run_s {:?}",
        a.workload,
        a.seed,
        reps.len(),
        reps.iter().filter(|r| r.traced).count(),
        reps.iter()
            .map(|r| (r.run_s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "digest {} seed {} {digest:#018x} goodput {}/{} hp_p99_slowdown {:?} be_norm_tput {:?}",
        a.workload, a.seed, first.good, first.due, first.hp_p99_slowdown, first.be_norm_tput
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|a| match a.workload.as_str() {
        "colloc" => bench(&colloc::Colloc, &a),
        "fleet" => bench(&fleet::Fleet, &a),
        "llm_serving" => bench(&serving::LlmServing, &a),
        w => Err(format!(
            "unknown workload {w:?} (colloc, fleet, llm_serving)"
        )),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
