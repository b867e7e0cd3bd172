//! Exact utilization accounting.
//!
//! The engine's state (running kernels, rates, copies) is piecewise-constant
//! between events, so utilization can be integrated exactly: each interval
//! contributes `value * dt` to the running integrals, and optionally a point
//! to a decimated timeline used to plot Figures 1, 8 and 9.

use orion_desim::time::SimTime;
use orion_json::{json, FromJson, JsonError, ToJson, Value};

use crate::interference::KernelRate;

/// Cached device-wide utilization totals over the current rate set, so the
/// per-event integrate step does O(1) work instead of re-summing every
/// running kernel.
///
/// Recomputed (in rate-array position order) only when a rate refresh
/// actually changed something. Exactness: `compute_used`/`mem_used` are
/// bitwise the `rate * demand` products the eager per-event loop multiplied
/// (under capacity, `demand * mult` equals `mult * demand` — IEEE
/// multiplication is commutative; over capacity the evaluator stores the
/// product itself), and the position order matches the eager summation
/// order, so the f64 sums — and the utilization timeline built from them —
/// are bit-identical to the old O(running) integrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct UtilTotals {
    /// Total compute throughput consumed (fraction of device peak, unclamped).
    pub compute: f64,
    /// Total memory bandwidth consumed (fraction of device peak, unclamped).
    pub mem_bw: f64,
    /// Total SMs granted across running kernels.
    pub sm_busy: u32,
}

impl UtilTotals {
    /// Sums the consumed-resource columns of `rates` in position order.
    pub fn recompute(rates: &[KernelRate]) -> Self {
        let mut t = UtilTotals::default();
        for r in rates {
            t.compute += r.compute_used;
            t.mem_bw += r.mem_used;
            t.sm_busy += r.sm_granted;
        }
        t
    }
}

/// One sample of the utilization timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    /// Interval start time.
    pub at: SimTime,
    /// Interval length.
    pub dur: SimTime,
    /// Compute-throughput utilization in `[0, 1]` over the interval.
    pub compute: f64,
    /// Memory-bandwidth utilization in `[0, 1]` over the interval.
    pub mem_bw: f64,
    /// Fraction of SMs busy (executing at least one block) over the interval.
    pub sm_busy: f64,
}

/// Integrates utilization over piecewise-constant intervals.
#[derive(Debug, Clone, Default)]
pub struct UtilAccumulator {
    total_time: SimTime,
    compute_integral: f64,
    mem_integral: f64,
    sm_integral: f64,
    /// Optional full timeline (enabled for figure experiments).
    timeline: Option<Vec<UtilSample>>,
}

/// Averaged utilization summary (the rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilSummary {
    /// Mean compute-throughput utilization.
    pub compute: f64,
    /// Mean memory-bandwidth utilization.
    pub mem_bw: f64,
    /// Mean SM-busy fraction.
    pub sm_busy: f64,
    /// Total simulated time integrated.
    pub elapsed: SimTime,
}

impl ToJson for UtilSummary {
    fn to_json(&self) -> Value {
        json!({
            "compute": self.compute,
            "mem_bw": self.mem_bw,
            "sm_busy": self.sm_busy,
            "elapsed": self.elapsed.to_json(),
        })
    }
}

impl FromJson for UtilSummary {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        use orion_json::de::*;
        Ok(UtilSummary {
            compute: f64_field(v, "compute")?,
            mem_bw: f64_field(v, "mem_bw")?,
            sm_busy: f64_field(v, "sm_busy")?,
            elapsed: SimTime::from_json(field(v, "elapsed")?)?,
        })
    }
}

impl UtilAccumulator {
    /// Creates an accumulator; `record_timeline` keeps every interval sample.
    pub fn new(record_timeline: bool) -> Self {
        UtilAccumulator {
            timeline: record_timeline.then(Vec::new),
            ..Default::default()
        }
    }

    /// Accounts one interval of constant utilization.
    pub fn add(&mut self, at: SimTime, dur: SimTime, compute: f64, mem_bw: f64, sm_busy: f64) {
        if dur.is_zero() {
            return;
        }
        let dt = dur.as_secs_f64();
        self.total_time += dur;
        self.compute_integral += compute * dt;
        self.mem_integral += mem_bw * dt;
        self.sm_integral += sm_busy * dt;
        if let Some(tl) = &mut self.timeline {
            // Merge with the previous sample when utilization is unchanged,
            // keeping figure timelines compact.
            if let Some(last) = tl.last_mut() {
                let same = (last.compute - compute).abs() < 1e-9
                    && (last.mem_bw - mem_bw).abs() < 1e-9
                    && (last.sm_busy - sm_busy).abs() < 1e-9
                    && last.at + last.dur == at;
                if same {
                    last.dur += dur;
                    return;
                }
            }
            tl.push(UtilSample {
                at,
                dur,
                compute,
                mem_bw,
                sm_busy,
            });
        }
    }

    /// Time-weighted averages over everything integrated so far.
    pub fn summary(&self) -> UtilSummary {
        let t = self.total_time.as_secs_f64();
        if t <= 0.0 {
            return UtilSummary {
                compute: 0.0,
                mem_bw: 0.0,
                sm_busy: 0.0,
                elapsed: SimTime::ZERO,
            };
        }
        UtilSummary {
            compute: self.compute_integral / t,
            mem_bw: self.mem_integral / t,
            sm_busy: self.sm_integral / t,
            elapsed: self.total_time,
        }
    }

    /// The recorded timeline, when enabled.
    pub fn timeline(&self) -> Option<&[UtilSample]> {
        self.timeline.as_deref()
    }

    /// Resamples the timeline onto a fixed-width grid (for plotting), each
    /// bucket holding the time-weighted mean utilization.
    ///
    /// Returns an empty vector when the timeline was not recorded.
    pub fn resample(&self, bucket: SimTime) -> Vec<UtilSample> {
        let Some(tl) = &self.timeline else {
            return Vec::new();
        };
        if tl.is_empty() || bucket.is_zero() {
            return Vec::new();
        }
        let end = {
            let last = tl.last().expect("non-empty");
            last.at + last.dur
        };
        let nb = end.as_nanos().div_ceil(bucket.as_nanos()) as usize;
        let mut acc = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); nb]; // (c, m, s, t)
        for s in tl {
            // Distribute this interval across the buckets it overlaps.
            let mut start = s.at;
            let int_end = s.at + s.dur;
            while start < int_end {
                let b = (start.as_nanos() / bucket.as_nanos()) as usize;
                let bucket_end = SimTime::from_nanos((b as u64 + 1) * bucket.as_nanos());
                let seg_end = int_end.min(bucket_end);
                let dt = (seg_end - start).as_secs_f64();
                let cell = &mut acc[b.min(nb - 1)];
                cell.0 += s.compute * dt;
                cell.1 += s.mem_bw * dt;
                cell.2 += s.sm_busy * dt;
                cell.3 += dt;
                start = seg_end;
            }
        }
        acc.iter()
            .enumerate()
            .map(|(i, &(c, m, s, t))| {
                let norm = if t > 0.0 { t } else { 1.0 };
                UtilSample {
                    at: SimTime::from_nanos(i as u64 * bucket.as_nanos()),
                    dur: bucket,
                    compute: c / norm,
                    mem_bw: m / norm,
                    sm_busy: s / norm,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_are_time_weighted() {
        let mut u = UtilAccumulator::new(false);
        u.add(SimTime::ZERO, SimTime::from_micros(10), 1.0, 0.0, 0.5);
        u.add(
            SimTime::from_micros(10),
            SimTime::from_micros(30),
            0.0,
            1.0,
            0.5,
        );
        let s = u.summary();
        assert!((s.compute - 0.25).abs() < 1e-9);
        assert!((s.mem_bw - 0.75).abs() < 1e-9);
        assert!((s.sm_busy - 0.5).abs() < 1e-9);
        assert_eq!(s.elapsed, SimTime::from_micros(40));
    }

    #[test]
    fn empty_summary_is_zero() {
        let u = UtilAccumulator::new(false);
        let s = u.summary();
        assert_eq!(s.compute, 0.0);
        assert_eq!(s.elapsed, SimTime::ZERO);
    }

    #[test]
    fn timeline_merges_equal_intervals() {
        let mut u = UtilAccumulator::new(true);
        u.add(SimTime::ZERO, SimTime::from_micros(5), 0.5, 0.5, 0.5);
        u.add(
            SimTime::from_micros(5),
            SimTime::from_micros(5),
            0.5,
            0.5,
            0.5,
        );
        u.add(
            SimTime::from_micros(10),
            SimTime::from_micros(5),
            0.9,
            0.5,
            0.5,
        );
        let tl = u.timeline().unwrap();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].dur, SimTime::from_micros(10));
    }

    #[test]
    fn zero_duration_intervals_ignored() {
        let mut u = UtilAccumulator::new(true);
        u.add(SimTime::ZERO, SimTime::ZERO, 1.0, 1.0, 1.0);
        assert!(u.timeline().unwrap().is_empty());
        assert_eq!(u.summary().elapsed, SimTime::ZERO);
    }

    #[test]
    fn resample_preserves_mean() {
        let mut u = UtilAccumulator::new(true);
        u.add(SimTime::ZERO, SimTime::from_micros(15), 1.0, 0.0, 0.0);
        u.add(
            SimTime::from_micros(15),
            SimTime::from_micros(5),
            0.0,
            0.0,
            0.0,
        );
        let buckets = u.resample(SimTime::from_micros(10));
        assert_eq!(buckets.len(), 2);
        assert!((buckets[0].compute - 1.0).abs() < 1e-9);
        assert!((buckets[1].compute - 0.5).abs() < 1e-9);
    }

    #[test]
    fn resample_without_timeline_is_empty() {
        let mut u = UtilAccumulator::new(false);
        u.add(SimTime::ZERO, SimTime::from_micros(10), 1.0, 1.0, 1.0);
        assert!(u.resample(SimTime::from_micros(1)).is_empty());
    }
}
