//! In-memory span recorder. The harness wraps each call it makes into a
//! layer's public API in a span; nothing inside the program is traced.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, `<layer>.<call>` (e.g. `world.run`, `cluster.absorb`).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell (colloc, llm_serving) or epoch (fleet) id.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Host-speed calibration. The host's speed drifts by up to ~2x over tens of
/// minutes, which no run length averages away. A fixed, harness-owned
/// calibration loop runs between layer calls and samples that speed next to
/// the timed work, so host times can be reported at the loop's reference
/// speed.
pub struct Probe {
    last: Instant,
    /// Calibration runs, ns each.
    pub samples: Vec<u64>,
    /// Total ns spent calibrating (excluded from every reported time).
    pub spent_ns: u64,
}

/// Minimum host time between two calibration runs.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

/// Calibration loop time at the reference speed (a quiet 2-core x86-64 VM).
pub const PROBE_REF_NS: f64 = 1.5e6;

impl Probe {
    fn new() -> Self {
        Probe {
            last: Instant::now(),
            samples: Vec::new(),
            spent_ns: 0,
        }
    }

    /// Runs the calibration loop when the last run is `PROBE_INTERVAL` old.
    fn maybe_run(&mut self) {
        if self.last.elapsed() < PROBE_INTERVAL {
            return;
        }
        let t0 = Instant::now();
        black_box(calibration_work());
        let ns = t0.elapsed().as_nanos() as u64;
        self.samples.push(ns);
        self.spent_ns += ns;
        self.last = Instant::now();
    }

    /// Mean calibration time over the reference time: > 1 on a slower host.
    pub fn slowdown(samples: &[u64]) -> f64 {
        samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64 / PROBE_REF_NS
    }
}

/// Fixed work shaped like the simulator's control code rather than a tight
/// loop: dynamic dispatch, hashing, small allocations and a sort.
fn calibration_work() -> u64 {
    let steps: [fn(u64) -> u64; 3] = [
        |x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 7),
        |x| x.wrapping_add(0x632b_e59b_d9b4_e019).rotate_left(13),
        |x| x ^ (x >> 29),
    ];
    let mut acc = 0u64;
    for round in 0..3u64 {
        let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
        let mut x = round + 1;
        for i in 0..4000u64 {
            x = black_box(steps[(x % 3) as usize])(x.wrapping_add(i));
            groups.entry(format!("k{}", x % 1024)).or_default().push(x);
        }
        let mut sums: Vec<(String, u64)> = groups
            .into_iter()
            .map(|(k, v)| (k, v.iter().fold(0u64, |a, &b| a.wrapping_add(b))))
            .collect();
        sums.sort();
        acc = acc.wrapping_add(sums[0].1);
    }
    acc
}

/// Span recorder. When disabled, [`Tracer::span`] only calls its closure.
/// Every span end gives the calibration [`Probe`] a chance to run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The host-speed probe, run between layer calls.
    pub probe: Probe,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            probe: Probe::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` with id `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            let r = f(self);
            self.probe.maybe_run();
            return r;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.probe.maybe_run();
        r
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }
}
