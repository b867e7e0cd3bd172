//! Randomized property tests for the GPU simulator's core invariants.
//!
//! Cases are drawn from a [`DetRng`] fuzz corpus seeded per test; every
//! failure reproduces exactly from its case index.

use orion_desim::rng::{cell_seed, DetRng};
use orion_desim::time::SimTime;
use orion_gpu::engine::{GpuEngine, OpKind};
use orion_gpu::interference::{
    allocate_sms, arbitrated_factors, closed_form_into, evaluate, KernelLoad, KernelRate, ModelParams,
};
use orion_gpu::kernel::{classify_utilization, KernelBuilder, ResourceProfile};
use orion_gpu::spec::GpuSpec;
use orion_gpu::stream::StreamPriority;

const CASES: u64 = 64;

fn gen_load(rng: &mut DetRng) -> KernelLoad {
    KernelLoad {
        sm_needed: 1 + rng.uniform_u64(119) as u32,
        sm_granted: 0,
        compute_demand: rng.next_f64(),
        mem_demand: rng.next_f64(),
        urgency: rng.uniform_u64(5) as i16 - 2,
        seq: rng.uniform_u64(1_000),
    }
}

fn gen_loads(rng: &mut DetRng, max: u64) -> Vec<KernelLoad> {
    let n = 1 + rng.uniform_u64(max - 1) as usize;
    (0..n).map(|_| gen_load(rng)).collect()
}

/// SM grants never exceed the device total or any kernel's need.
#[test]
fn grants_bounded() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB1, case));
        let loads = gen_loads(&mut rng, 20);
        let sms = 1 + rng.uniform_u64(199) as u32;
        let grants = allocate_sms(sms, &loads);
        let total: u32 = grants.iter().sum();
        assert!(total <= sms, "case {case}");
        for (g, l) in grants.iter().zip(&loads) {
            assert!(*g <= l.sm_needed, "case {case}");
        }
    }
}

/// Rates are in [0, 1] and consumed resources respect capacity budgets.
#[test]
fn rates_and_conservation() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB2, case));
        let loads = gen_loads(&mut rng, 20);
        let rates = evaluate(&ModelParams::from(&GpuSpec::v100_16gb()), &loads);
        let mut c_total = 0.0;
        let mut m_total = 0.0;
        for r in &rates {
            assert!((0.0..=1.0 + 1e-9).contains(&r.rate), "case {case}: rate {}", r.rate);
            c_total += r.compute_used;
            m_total += r.mem_used;
        }
        assert!(c_total <= 1.0 + 1e-9, "case {case}: compute {c_total}");
        assert!(m_total <= 1.0 + 1e-9, "case {case}: memory {m_total}");
    }
}

/// Adding a second kernel never speeds up the first (interference is
/// monotone non-positive).
#[test]
fn interference_is_monotone() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB3, case));
        let a = gen_load(&mut rng);
        let b = gen_load(&mut rng);
        let p = ModelParams::from(&GpuSpec::v100_16gb());
        let solo = evaluate(&p, &[a])[0].rate;
        let pair = evaluate(&p, &[a, b])[0].rate;
        assert!(pair <= solo + 1e-9, "case {case}: solo {solo}, pair {pair}");
    }
}

/// The 60% classification rule is total and consistent with is_opposite.
#[test]
fn classification_total() {
    for case in 0..256u64 {
        let mut rng = DetRng::new(cell_seed(0xB4, case));
        let c = rng.next_f64();
        let m = rng.next_f64();
        let p = classify_utilization(c, m);
        match p {
            ResourceProfile::ComputeBound => assert!(c >= 0.6, "case {case}"),
            ResourceProfile::MemoryBound => assert!(m >= 0.6, "case {case}"),
            ResourceProfile::Unknown => assert!(c < 0.6 || m < 0.6, "case {case}"),
        }
        assert!(!p.is_opposite(p), "case {case}");
    }
}

/// End-to-end: N kernels across streams all complete, completion times
/// are at least the solo duration, and total utilization never exceeds 1.
#[test]
fn kernels_complete_and_obey_bounds() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB5, case));
        let n = 1 + rng.uniform_u64(11) as usize;
        let durations: Vec<u64> = (0..n).map(|_| 10 + rng.uniform_u64(490)).collect();
        let seed = rng.uniform_u64(1000);
        let mut e = GpuEngine::new(GpuSpec::v100_16gb(), false);
        let streams: Vec<_> = (0..3)
            .map(|i| {
                e.create_stream(if i == 0 {
                    StreamPriority::HIGH
                } else {
                    StreamPriority::DEFAULT
                })
            })
            .collect();
        for (i, &us) in durations.iter().enumerate() {
            let mix = (seed + i as u64) % 3;
            let (c, m) = match mix {
                0 => (0.85, 0.2),
                1 => (0.15, 0.8),
                _ => (0.3, 0.3),
            };
            let k = KernelBuilder::new(i as u32, format!("k{i}"))
                .grid_blocks(((seed % 64 + 2 * i as u64 + 2) as u32).min(160))
                .threads_per_block(1024)
                .regs_per_thread(16)
                .solo_duration(SimTime::from_micros(us))
                .utilization(c, m)
                .build();
            let stream = streams[i % streams.len()];
            e.submit(stream, OpKind::Kernel(k)).unwrap();
        }
        e.advance_to(SimTime::from_secs(10));
        let done = e.drain_completions();
        assert_eq!(done.len(), durations.len(), "case {case}");
        let u = e.util_summary();
        assert!(u.compute <= 1.0 + 1e-9, "case {case}");
        assert!(u.mem_bw <= 1.0 + 1e-9, "case {case}");
        assert!(u.sm_busy <= 1.0 + 1e-9, "case {case}");
        // Makespan at least the longest kernel and at most the sum of all.
        let makespan = done.iter().map(|c| c.at).max().unwrap();
        let longest = SimTime::from_micros(*durations.iter().max().unwrap());
        let total: u64 = durations.iter().sum();
        assert!(makespan >= longest, "case {case}");
        // Allow overload-penalty stretch (worst case ~1 + beta_c) plus
        // interleaving slack.
        let upper = SimTime::from_micros(total).mul_f64(1.7) + SimTime::from_micros(1);
        assert!(makespan <= upper, "case {case}: makespan {makespan}, upper {upper}");
    }
}

/// Sticky grants under membership churn, as the engine carries them: each
/// evaluation's grants are written back into the loads, kernels join
/// ungranted and leave at random. At every evaluation the grant total stays
/// within the device and each kernel's own need, and no kernel ever loses
/// an SM it was granted.
#[test]
fn sticky_grants_bounded_under_churn() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB7, case));
        let sms = 1 + rng.uniform_u64(199) as u32;
        let params = ModelParams {
            num_sms: sms,
            ..ModelParams::from(&GpuSpec::v100_16gb())
        };
        let mut loads: Vec<KernelLoad> = Vec::new();
        let mut seq = 0u64;
        for step in 0..40 {
            if loads.is_empty() || rng.uniform_u64(3) > 0 {
                let mut l = gen_load(&mut rng);
                l.seq = seq;
                seq += 1;
                loads.push(l);
            } else {
                loads.remove(rng.uniform_u64(loads.len() as u64) as usize);
            }
            let rates = evaluate(&params, &loads);
            let total: u32 = rates.iter().map(|r| r.sm_granted).sum();
            assert!(total <= sms, "case {case} step {step}: {total} > {sms}");
            for (l, r) in loads.iter_mut().zip(&rates) {
                assert!(r.sm_granted <= l.sm_needed, "case {case} step {step}");
                assert!(
                    r.sm_granted >= l.sm_granted,
                    "case {case} step {step}: grant revoked {} -> {}",
                    l.sm_granted,
                    r.sm_granted
                );
                l.sm_granted = r.sm_granted;
            }
        }
    }
}

/// Arbitrated rationing factors always land in (0, 1], including under
/// heavy oversubscription.
#[test]
fn factors_in_unit_interval() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB8, case));
        let n = 1 + rng.uniform_u64(30) as usize;
        let eff: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0).collect();
        let shares: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let total: f64 = eff.iter().sum();
        let beta = rng.next_f64() * 2.0;
        let arb = rng.next_f64();
        for f in arbitrated_factors(total, beta, arb, &eff, &shares) {
            assert!(
                f > 0.0 && f <= 1.0,
                "case {case}: factor {f} outside (0, 1] (total {total})"
            );
        }
    }
}

/// Rates are monotonically non-increasing as co-runners are added one at a
/// time (same roofline class throughout, so the interleave alpha of a
/// starved kernel cannot flip upward when the dominant holder changes).
#[test]
fn rates_monotone_as_corunners_added() {
    let p = ModelParams::from(&GpuSpec::v100_16gb());
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB9, case));
        let n = 2 + rng.uniform_u64(9) as usize;
        let mut loads: Vec<KernelLoad> = Vec::new();
        let mut prev: Vec<f64> = Vec::new();
        for step in 0..n {
            loads.push(KernelLoad {
                sm_needed: 1 + rng.uniform_u64(119) as u32,
                sm_granted: 0,
                // All compute-bound: one resource class, one alpha.
                compute_demand: 0.6 + 0.4 * rng.next_f64(),
                mem_demand: 0.2 * rng.next_f64(),
                urgency: 0,
                seq: step as u64,
            });
            // Sticky grants: carry the grants forward like the engine does.
            let rates = evaluate(&p, &loads);
            for (l, r) in loads.iter_mut().zip(&rates) {
                l.sm_granted = r.sm_granted;
            }
            for (i, old) in prev.iter().enumerate() {
                assert!(
                    rates[i].rate <= old + 1e-9,
                    "case {case} step {step}: kernel {i} sped up {old} -> {}",
                    rates[i].rate
                );
            }
            prev = rates.iter().map(|r| r.rate).collect();
        }
    }
}

/// An idle-device evaluation yields the solo rate exactly: a lone kernel
/// whose demand fits the device runs at bitwise 1.0, with its demands
/// consumed verbatim.
#[test]
fn idle_device_solo_rates_exact() {
    let p = ModelParams::from(&GpuSpec::v100_16gb());
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xBA, case));
        let l = KernelLoad {
            sm_needed: 1 + rng.uniform_u64(p.num_sms as u64) as u32,
            sm_granted: 0,
            compute_demand: rng.next_f64(),
            mem_demand: rng.next_f64(),
            urgency: rng.uniform_u64(5) as i16 - 2,
            seq: 0,
        };
        let r = evaluate(&p, &[l])[0];
        assert_eq!(r.rate.to_bits(), 1.0f64.to_bits(), "case {case}");
        assert_eq!(r.sm_granted, l.sm_needed, "case {case}");
        assert_eq!(r.compute_used.to_bits(), l.compute_demand.to_bits(), "case {case}");
        assert_eq!(r.mem_used.to_bits(), l.mem_demand.to_bits(), "case {case}");
    }
}

/// Work conservation in time: a kernel's completion time on an idle
/// device equals its solo duration exactly.
#[test]
fn solo_time_exact() {
    for case in 0..CASES {
        let mut rng = DetRng::new(cell_seed(0xB6, case));
        let us = 1 + rng.uniform_u64(9_999);
        let sm = 1 + rng.uniform_u64(80) as u32;
        let mut e = GpuEngine::new(GpuSpec::v100_16gb(), false);
        let s = e.create_stream(StreamPriority::DEFAULT);
        let k = KernelBuilder::new(0, "solo")
            .grid_blocks(2 * sm)
            .threads_per_block(1024)
            .regs_per_thread(16)
            .solo_duration(SimTime::from_micros(us))
            .utilization(0.5, 0.4)
            .build();
        e.submit(s, OpKind::Kernel(k)).unwrap();
        e.advance_to(SimTime::from_secs(100));
        let done = e.drain_completions();
        assert_eq!(done[0].at, SimTime::from_micros(us), "case {case}");
    }
}

// ---- running-set invariants ----

/// Drives a seeded mixed workload (kernels, copies, advances, resets) and
/// invokes `check` after every step with the engine refreshed.
fn drive_churn(tag: u64, case: u64, mut check: impl FnMut(&mut GpuEngine, &str)) {
    let mut rng = DetRng::new(cell_seed(tag, case));
    let n_streams = 1 + rng.uniform_u64(48) as usize;
    let mut e = GpuEngine::new(GpuSpec::v100_16gb(), true);
    let streams: Vec<_> = (0..n_streams)
        .map(|i| {
            e.create_stream(match i % 3 {
                0 => StreamPriority::HIGH,
                1 => StreamPriority::DEFAULT,
                _ => StreamPriority(1),
            })
        })
        .collect();
    let mut t = SimTime::ZERO;
    for step in 0..140u32 {
        match rng.uniform_u64(100) {
            0..=49 => {
                let sm = 1 + rng.uniform_u64(100) as u32;
                let k = KernelBuilder::new(step, format!("p{step}"))
                    .grid_blocks(2 * sm)
                    .threads_per_block(1024)
                    .regs_per_thread(16)
                    .solo_duration(SimTime::from_micros(5 + rng.uniform_u64(200)))
                    .utilization(rng.next_f64(), rng.next_f64())
                    .build();
                let s = streams[rng.uniform_u64(n_streams as u64) as usize];
                let _ = e.submit(s, OpKind::Kernel(k));
            }
            50..=59 => {
                let s = streams[rng.uniform_u64(n_streams as u64) as usize];
                let _ = e.submit(
                    s,
                    OpKind::MemcpyH2D {
                        bytes: 1 << (10 + rng.uniform_u64(12)),
                        blocking: rng.uniform_u64(4) == 0,
                    },
                );
            }
            60..=94 => {
                t += SimTime::from_micros(1 + rng.uniform_u64(150));
                e.advance_to(t);
                e.drain_completions();
            }
            _ => {
                e.reset_device();
                e.drain_completions();
            }
        }
        e.next_event_time(); // force a refresh so rates are current
        check(&mut e, &format!("case {case} step {step}"));
    }
}

/// Remaining work is non-negative and, per kernel, monotonically
/// non-increasing across every observation point. Both claims are exact (no
/// tolerance): rates are never negative, f64 subtraction of a non-negative
/// amount is monotone, and a kernel whose work ran out has left the set.
#[test]
fn remaining_work_nonnegative_and_monotone() {
    use std::collections::HashMap;
    for case in 0..CASES {
        let mut last: HashMap<u64, f64> = HashMap::new();
        drive_churn(0xBB, case, |e, ctx| {
            let ids = e.running_kernel_ids().to_vec();
            let rem = e.remaining_work();
            last.retain(|id, _| ids.contains(id));
            for (i, &id) in ids.iter().enumerate() {
                assert!(
                    rem[i] >= 0.0,
                    "{ctx}: op {id} remaining work {} < 0",
                    rem[i]
                );
                if let Some(&prev) = last.get(&id) {
                    assert!(
                        rem[i] <= prev,
                        "{ctx}: op {id} remaining grew: {prev} -> {}",
                        rem[i]
                    );
                }
                last.insert(id, rem[i]);
            }
        });
    }
}

/// Utilization never exceeds 1.0 in any component — neither in the running
/// summary nor in any recorded timeline sample — under the cached-totals
/// integrate path.
#[test]
fn utilization_components_bounded() {
    for case in 0..CASES {
        drive_churn(0xBC, case, |e, ctx| {
            let s = e.util_summary();
            for (name, v) in [
                ("compute", s.compute),
                ("mem_bw", s.mem_bw),
                ("sm_busy", s.sm_busy),
            ] {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&v),
                    "{ctx}: summary {name} = {v}"
                );
            }
            if let Some(tl) = e.util().timeline() {
                for (i, smp) in tl.iter().enumerate() {
                    for (name, v) in [
                        ("compute", smp.compute),
                        ("mem_bw", smp.mem_bw),
                        ("sm_busy", smp.sm_busy),
                    ] {
                        assert!(
                            (0.0..=1.0 + 1e-9).contains(&v),
                            "{ctx}: timeline[{i}] {name} = {v}"
                        );
                    }
                }
            }
        });
    }
}

// ---- the fused evaluator against the multi-pass one ----

/// The multi-pass evaluator that `evaluate` replaced, kept verbatim as the
/// reference for the fused pass: one column per intermediate (grants,
/// multipliers, effective demands, SM shares, weights, factors), each
/// filled by its own loop, with totals from `Iterator::sum`. It also
/// returns the two effective-demand totals, so a test can tell which
/// resources were over capacity.
mod multi_pass {
    use orion_gpu::interference::{
        interleave_alpha, interleave_multiplier, rationing_factor, KernelLoad, KernelRate, ModelParams,
    };

    pub fn allocate_sms(num_sms: u32, loads: &[KernelLoad]) -> Vec<u32> {
        let granted_total: u32 = loads.iter().map(|l| l.sm_granted).sum();
        let mut free = num_sms.saturating_sub(granted_total);
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(loads[i].urgency), loads[i].seq));
        let mut grants: Vec<u32> = loads.iter().map(|l| l.sm_granted).collect();
        for &i in order.iter() {
            let want = loads[i].sm_needed.saturating_sub(grants[i]);
            let take = want.min(free);
            grants[i] += take;
            free -= take;
            if free == 0 {
                break;
            }
        }
        grants
    }

    pub fn evaluate(params: &ModelParams, loads: &[KernelLoad]) -> (Vec<KernelRate>, f64, f64) {
        let grants = allocate_sms(params.num_sms, loads);
        let holder = loads
            .iter()
            .zip(grants.iter())
            .filter(|(_, &g)| g > 0)
            .max_by_key(|(l, &g)| (g, std::cmp::Reverse(l.seq)))
            .map(|(l, _)| l.profile());
        let mult: Vec<f64> = loads
            .iter()
            .zip(grants.iter())
            .map(|(l, &g)| {
                let alpha = match holder {
                    Some(h) if g < l.sm_needed => interleave_alpha(params, l.profile(), h),
                    _ => 1.0,
                };
                interleave_multiplier(g, l.sm_needed, alpha)
            })
            .collect();
        let eff_c: Vec<f64> = loads.iter().zip(&mult).map(|(l, &f)| l.compute_demand * f).collect();
        let eff_m: Vec<f64> = loads.iter().zip(&mult).map(|(l, &f)| l.mem_demand * f).collect();
        let total_compute: f64 = eff_c.iter().sum();
        let total_mem: f64 = eff_m.iter().sum();
        let sm_share: Vec<f64> = grants
            .iter()
            .map(|&g| g as f64 / params.num_sms.max(1) as f64)
            .collect();
        let compute_factors =
            arbitrated_factors(total_compute, params.compute_beta, params.arbitration, &eff_c, &sm_share);
        let mem_factors = arbitrated_factors(total_mem, params.mem_beta, params.arbitration, &eff_m, &sm_share);
        let rates = loads
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let f = mult[i];
                let mut rate = f;
                if l.compute_demand > 0.0 {
                    rate = rate.min(f * compute_factors[i]);
                }
                if l.mem_demand > 0.0 {
                    rate = rate.min(f * mem_factors[i]);
                }
                KernelRate {
                    sm_granted: grants[i],
                    rate,
                    compute_used: rate * l.compute_demand,
                    mem_used: rate * l.mem_demand,
                }
            })
            .collect();
        (rates, total_compute, total_mem)
    }

    pub fn arbitrated_factors(total: f64, beta: f64, arb: f64, eff: &[f64], shares: &[f64]) -> Vec<f64> {
        let n = eff.len();
        if total <= 1.0 {
            return vec![1.0; n];
        }
        let lambda = arb * (total - 1.0);
        let weights: Vec<f64> = eff
            .iter()
            .zip(shares)
            .map(|(&d, &s)| d / (1.0 + lambda * (1.0 - s.clamp(0.0, 1.0))))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        if weight_sum <= 0.0 {
            return vec![1.0; n];
        }
        let delivered_total = total * rationing_factor(total, beta);
        weights
            .iter()
            .zip(eff)
            .map(|(&w, &d)| {
                if d <= 0.0 {
                    1.0
                } else {
                    (delivered_total * w / (weight_sum * d)).min(1.0)
                }
            })
            .collect()
    }
}

fn rate_bits(rates: &[KernelRate]) -> Vec<(u32, u64, u64, u64)> {
    rates.iter().map(KernelRate::to_bits).collect()
}

/// A demand for one of the load-shape regimes: zero (either sign) now and
/// then, otherwise uniform in `[0, hi)`.
fn gen_demand(rng: &mut DetRng, hi: f64) -> f64 {
    match rng.uniform_u64(8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.uniform_f64(0.0, hi),
    }
}

/// The fused `evaluate` matches the multi-pass evaluator bit for bit on
/// seeded sets of 1–8 loads. Each case draws one regime: both resources
/// under capacity, compute over, memory over, or both over. Grants are
/// partly sticky (some kernels hold part or all of their need, within the
/// device), demands are sometimes exactly ±0, urgencies come from two
/// levels so they tie often, and `seq` sometimes repeats so that holder
/// keys tie as well.
///
/// Why the fused forms match: its totals fold left to right from -0.0,
/// which is what `Iterator::sum` does for `f64`, so every partial sum is
/// the same; and its holder scan replaces on `>=`, so among equal keys it
/// keeps the last one, as `max_by_key` does.
#[test]
fn fused_evaluate_matches_multi_pass_bitwise() {
    let base = ModelParams::from(&GpuSpec::v100_16gb());
    let mut regimes = [0u32; 4];
    for case in 0..4096u64 {
        let mut rng = DetRng::new(cell_seed(0xBD, case));
        let regime = (case % 4) as usize;
        let (c_hi, m_hi) = match regime {
            0 => (0.12, 0.12),
            1 => (1.0, 0.12),
            2 => (0.12, 1.0),
            _ => (1.0, 1.0),
        };
        let params = ModelParams {
            num_sms: 1 + rng.uniform_u64(120) as u32,
            ..base
        };
        let n = 1 + rng.uniform_u64(8) as usize;
        let repeat_seq = rng.uniform_u64(4) == 0;
        let mut free = params.num_sms;
        let loads: Vec<KernelLoad> = (0..n)
            .map(|i| {
                let sm_needed = 1 + rng.uniform_u64(params.num_sms as u64 * 3 / 2 + 1) as u32;
                let sm_granted = match rng.uniform_u64(3) {
                    0 => 0,
                    1 => rng.uniform_u64(sm_needed as u64 + 1) as u32,
                    _ => sm_needed,
                }
                .min(free);
                free -= sm_granted;
                KernelLoad {
                    sm_needed,
                    sm_granted,
                    compute_demand: gen_demand(&mut rng, c_hi),
                    mem_demand: gen_demand(&mut rng, m_hi),
                    urgency: rng.uniform_u64(2) as i16,
                    seq: if repeat_seq { rng.uniform_u64(3) } else { i as u64 },
                }
            })
            .collect();
        let (want, total_c, total_m) = multi_pass::evaluate(&params, &loads);
        regimes[usize::from(total_c > 1.0) + 2 * usize::from(total_m > 1.0)] += 1;
        assert_eq!(
            rate_bits(&evaluate(&params, &loads)),
            rate_bits(&want),
            "case {case}: {loads:?}"
        );
    }
    // Every regime (neither, compute, memory, both over capacity) was
    // reached.
    assert!(regimes.iter().all(|&r| r > 100), "regime counts {regimes:?}");
}

/// `arbitrated_factors` matches the multi-pass form bit for bit, under and
/// over capacity, with zero demands and clamped shares.
#[test]
fn arbitrated_factors_match_multi_pass_bitwise() {
    for case in 0..1024u64 {
        let mut rng = DetRng::new(cell_seed(0xBE, case));
        let n = 1 + rng.uniform_u64(8) as usize;
        let eff: Vec<f64> = (0..n).map(|_| gen_demand(&mut rng, 1.0)).collect();
        let shares: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-0.2, 1.2)).collect();
        let total: f64 = eff.iter().sum();
        let (beta, arb) = (rng.next_f64() * 2.0, rng.next_f64());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(arbitrated_factors(total, beta, arb, &eff, &shares)),
            bits(multi_pass::arbitrated_factors(total, beta, arb, &eff, &shares)),
            "case {case}"
        );
    }
}

/// The lone-kernel closed form equals the model bit for bit for every SM
/// need on the device, demands from {0, 0.3, 0.6, 1.0}, and an ungranted,
/// half-granted or fully granted (sticky) kernel; an empty set has no
/// rates.
#[test]
fn closed_form_matches_evaluate_for_lone_kernels() {
    const DEMANDS: [f64; 4] = [0.0, 0.3, 0.6, 1.0];
    let mut rates = Vec::new();
    for spec in [GpuSpec::v100_16gb(), GpuSpec::a100_40gb()] {
        let p = ModelParams::from(&spec);
        assert!(closed_form_into(&p, &[], &mut rates));
        assert!(rates.is_empty() && evaluate(&p, &[]).is_empty());
        for sm_needed in 1..=p.num_sms {
            for sm_granted in [0, sm_needed / 2, sm_needed] {
                for c in DEMANDS {
                    for m in DEMANDS {
                        let l = KernelLoad {
                            sm_needed,
                            sm_granted,
                            compute_demand: c,
                            mem_demand: m,
                            urgency: 0,
                            seq: 7,
                        };
                        assert!(closed_form_into(&p, &[l], &mut rates), "{l:?}");
                        assert_eq!(rate_bits(&rates), rate_bits(&evaluate(&p, &[l])), "{l:?}");
                    }
                }
            }
        }
        // Outside its domain the closed form declines.
        let big = KernelLoad {
            sm_needed: p.num_sms + 1,
            sm_granted: 0,
            compute_demand: 0.5,
            mem_demand: 0.5,
            urgency: 0,
            seq: 0,
        };
        assert!(!closed_form_into(&p, &[big], &mut rates));
        assert!(!closed_form_into(&p, &[big, big], &mut rates));
    }
}
