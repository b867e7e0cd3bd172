//! The roofline interference model: SM grants and progress rates for a set of
//! concurrently dispatched kernels.
//!
//! The model (DESIGN.md §4) has three ingredients:
//!
//! 1. **SM allocation.** SMs are granted greedily in (stream-priority,
//!    dispatch-order) sequence. Grants are *sticky* — the engine never revokes
//!    SMs from a running kernel (no preemption, paper §2/§5.1.2) — so this
//!    module only tops up kernels that still want more SMs, in priority order.
//! 2. **Profile-dependent block interleaving.** A kernel whose blocks have no
//!    dedicated SMs is not fully stalled: block schedulers interleave blocks
//!    from multiple kernels on an SM as residency turns over, and warp
//!    schedulers issue warps from co-resident blocks (paper §2). How well
//!    that works depends on the *resource relation* between the waiting
//!    kernel and the SM holders: a memory-bound kernel's warps issue freely
//!    between a compute-bound kernel's FMA stalls (Table 2's Conv2d+BN2d),
//!    while same-profile warps contend for the same units and the waiting
//!    kernel's blocks mostly queue (Table 2's Conv2d+Conv2d). A kernel
//!    granted `g` of `n` needed SMs progresses with multiplier
//!    `g/n + alpha * (1 - g/n)`, where `alpha` is `interleave_opposite`,
//!    `interleave_same`, or `interleave_mixed` from the device spec
//!    according to the waiter-vs-holder profile relation.
//! 3. **Throughput rationing.** Each kernel's effective compute / memory
//!    demand is its solo demand scaled by the interleave multiplier. If total
//!    demand `D` on a resource exceeds capacity, every kernel's progress on
//!    that resource is scaled by `1 / (D + beta * (D - 1))`: proportional
//!    rationing plus an overload penalty `beta` (oversubscription also wastes
//!    capacity — cache thrash, DRAM row conflicts, issue-slot contention).
//!    A kernel's rate is its multiplier times the worst rationing factor
//!    among the resources it uses.
//!
//! The constants are calibrated against the paper's Table 2 toy experiment
//! (see `crates/gpu-sim/tests/table2_calibration.rs`): Conv2d+Conv2d
//! serialize (~1.0x), BN2d+BN2d speed up ~1.09x, Conv2d+BN2d overlap ~1.45x.

use crate::kernel::{classify_utilization, ResourceProfile};

/// Interleave-efficiency parameters (from [`crate::spec::GpuSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Device SM count.
    pub num_sms: u32,
    /// Compute-throughput overload penalty.
    pub compute_beta: f64,
    /// Memory-bandwidth overload penalty.
    pub mem_beta: f64,
    /// Interleave rate vs. opposite-profile holders.
    pub alpha_opposite: f64,
    /// Interleave rate vs. same-profile holders.
    pub alpha_same: f64,
    /// Interleave rate vs. unknown/mixed holders.
    pub alpha_mixed: f64,
    /// SM-share arbitration strength under overload (see
    /// [`crate::spec::GpuSpec::arbitration_strength`]).
    pub arbitration: f64,
}

impl From<&crate::spec::GpuSpec> for ModelParams {
    fn from(s: &crate::spec::GpuSpec) -> Self {
        ModelParams {
            num_sms: s.num_sms,
            compute_beta: s.compute_overload_penalty,
            mem_beta: s.memory_overload_penalty,
            alpha_opposite: s.interleave_opposite,
            alpha_same: s.interleave_same,
            alpha_mixed: s.interleave_mixed,
            arbitration: s.arbitration_strength,
        }
    }
}

/// Per-kernel inputs to the interference model.
#[derive(Debug, Clone, Copy)]
pub struct KernelLoad {
    /// SMs this kernel wants (occupancy-derived `sm_needed`).
    pub sm_needed: u32,
    /// SMs currently granted (sticky; `<= sm_needed`).
    pub sm_granted: u32,
    /// Whole-GPU compute-throughput demand fraction at full SM grant.
    pub compute_demand: f64,
    /// Whole-GPU memory-bandwidth demand fraction at full SM grant.
    pub mem_demand: f64,
    /// Urgency key of the owning stream (larger dispatches first).
    pub urgency: i16,
    /// Dispatch order tie-breaker (smaller = earlier).
    pub seq: u64,
}

impl KernelLoad {
    /// Roofline class of this kernel (from its demand fractions).
    pub fn profile(&self) -> ResourceProfile {
        classify_utilization(self.compute_demand, self.mem_demand)
    }
}

/// Result of a model evaluation for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRate {
    /// Updated (possibly topped-up) SM grant.
    pub sm_granted: u32,
    /// Progress rate in solo-execution seconds per simulated second
    /// (1.0 = running exactly as fast as when alone).
    pub rate: f64,
    /// Compute throughput actually consumed (fraction of device peak).
    pub compute_used: f64,
    /// Memory bandwidth actually consumed (fraction of device peak).
    pub mem_used: f64,
}

impl KernelRate {
    /// Every field as raw bits, for bit-for-bit comparison (`==` on `f64`
    /// equates 0.0 with -0.0).
    pub fn to_bits(&self) -> (u32, u64, u64, u64) {
        (
            self.sm_granted,
            self.rate.to_bits(),
            self.compute_used.to_bits(),
            self.mem_used.to_bits(),
        )
    }
}

/// Reusable buffers for [`evaluate_into`], so the engine's steady-state rate
/// refresh performs no heap allocation once the buffers have grown to the
/// high-water concurrency of the run.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Output of the last [`evaluate_into`] call, parallel to its `loads`.
    pub rates: Vec<KernelRate>,
    grants: Vec<u32>,
    order: Vec<usize>,
    mult: Vec<f64>,
    eff_c: Vec<f64>,
    eff_m: Vec<f64>,
    /// Each kernel's (compute, memory) arbitration weight; 0 on a resource
    /// under capacity.
    weights: Vec<(f64, f64)>,
}

/// Tops up SM grants in (urgency, seq) order without revoking existing grants.
///
/// Returns the new grant for each kernel, parallel to `loads`.
pub fn allocate_sms(num_sms: u32, loads: &[KernelLoad]) -> Vec<u32> {
    let mut grants = Vec::new();
    allocate_sms_into(num_sms, loads, &mut grants, &mut Vec::new());
    grants
}

/// [`allocate_sms`] into caller-owned buffers (`order` is scratch).
fn allocate_sms_into(num_sms: u32, loads: &[KernelLoad], grants: &mut Vec<u32>, order: &mut Vec<usize>) {
    let granted_total: u32 = loads.iter().map(|l| l.sm_granted).sum();
    let mut free = num_sms.saturating_sub(granted_total);
    grants.clear();
    grants.extend(loads.iter().map(|l| l.sm_granted));
    // With no SM free, or no kernel wanting more, the top-up round below
    // would grant nothing: skip its sort.
    if free == 0 || loads.iter().all(|l| l.sm_granted >= l.sm_needed) {
        return;
    }
    order.clear();
    order.extend(0..loads.len());
    // Unstable sort to avoid the stable sort's internal allocation; the key
    // is unique per load (`seq` is the engine's unique dispatch sequence), so
    // the resulting order is identical to a stable sort.
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(loads[i].urgency), loads[i].seq));
    for &i in order.iter() {
        let want = loads[i].sm_needed.saturating_sub(grants[i]);
        let take = want.min(free);
        grants[i] += take;
        free -= take;
        if free == 0 {
            break;
        }
    }
}

/// The interleave multiplier for a kernel granted `granted` of `needed` SMs
/// with interleave efficiency `alpha`.
pub fn interleave_multiplier(granted: u32, needed: u32, alpha: f64) -> f64 {
    if needed == 0 {
        return 1.0;
    }
    let f = (granted.min(needed)) as f64 / needed as f64;
    f + alpha * (1.0 - f)
}

/// The interleave efficiency for a waiter of class `waiter` against the
/// dominant SM-holder class `holder`.
pub fn interleave_alpha(params: &ModelParams, waiter: ResourceProfile, holder: ResourceProfile) -> f64 {
    use ResourceProfile::{ComputeBound, MemoryBound};
    match (waiter, holder) {
        (ComputeBound, MemoryBound) | (MemoryBound, ComputeBound) => params.alpha_opposite,
        (ComputeBound, ComputeBound) | (MemoryBound, MemoryBound) => params.alpha_same,
        _ => params.alpha_mixed,
    }
}

/// The rationing factor for a resource with total demand `d` and overload
/// penalty `beta`: 1 under capacity, `1 / (d + beta * (d - 1))` above it.
pub fn rationing_factor(d: f64, beta: f64) -> f64 {
    if d > 1.0 {
        1.0 / (d + beta * (d - 1.0))
    } else {
        1.0
    }
}

/// The model's result for a set of at most one kernel, written into `rates`
/// without evaluating the model. Returns `false` (and leaves `rates` alone)
/// when the closed form does not apply; the caller then runs
/// [`evaluate_into`], whose result the closed form equals bit for bit.
///
/// An empty set has no rates. A lone kernel with `sm_granted <= sm_needed
/// <= num_sms` is topped up to exactly `sm_needed`, since no other kernel
/// holds SMs. Fully granted, it takes no interleave alpha, so its
/// multiplier is `n/n + 1.0 * (1 - n/n)`, exactly 1.0. With both demands
/// at most 1, neither resource is over capacity, so every rationing factor
/// is 1. Its rate is therefore 1.0 and it consumes exactly its demands
/// (`1.0 * d` is `d` in every bit). The engine's loads always qualify:
/// `sm_needed` is clamped to the device and demands are validated into
/// `[0, 1]`.
pub fn closed_form_into(params: &ModelParams, loads: &[KernelLoad], rates: &mut Vec<KernelRate>) -> bool {
    match loads {
        [] => rates.clear(),
        [l] if l.sm_granted <= l.sm_needed
            && l.sm_needed <= params.num_sms
            && l.compute_demand <= 1.0
            && l.mem_demand <= 1.0 =>
        {
            rates.clear();
            rates.push(KernelRate {
                sm_granted: l.sm_needed,
                rate: 1.0,
                compute_used: l.compute_demand,
                mem_used: l.mem_demand,
            });
        }
        _ => return false,
    }
    true
}

/// Evaluates the full interference model: grants + rates + consumed resources.
pub fn evaluate(params: &ModelParams, loads: &[KernelLoad]) -> Vec<KernelRate> {
    let mut scratch = EvalScratch::default();
    evaluate_into(params, loads, &mut scratch);
    scratch.rates
}

/// [`evaluate`] into reusable buffers: the result lands in `scratch.rates`
/// (parallel to `loads`) and no allocation happens once the buffers have
/// grown to the run's peak concurrency.
///
/// One pass after the SM top-up: a holder scan, then one loop that computes
/// each kernel's multiplier and effective demands and sums both totals.
/// When neither total exceeds capacity every rationing factor is exactly 1,
/// so each rate is its multiplier (`min(f, f * 1.0)` is `f`) and the pass
/// ends there. Only an over-capacity resource pays for arbitration.
pub fn evaluate_into(params: &ModelParams, loads: &[KernelLoad], scratch: &mut EvalScratch) {
    let EvalScratch {
        rates,
        grants,
        order,
        mult,
        eff_c,
        eff_m,
        weights,
    } = scratch;
    allocate_sms_into(params.num_sms, loads, grants, order);

    // Dominant SM-holder profile: the class of the kernel holding the most
    // SMs (ties: earliest dispatch). Starved kernels interleave against it.
    // `>=` keeps the last of equal keys, as `Iterator::max_by_key` does
    // (keys only tie when a `seq` repeats, which the engine never does).
    let mut holder: Option<(usize, (u32, std::cmp::Reverse<u64>))> = None;
    for (i, (l, &g)) in loads.iter().zip(grants.iter()).enumerate() {
        let key = (g, std::cmp::Reverse(l.seq));
        if g > 0 && holder.is_none_or(|(_, best)| key >= best) {
            holder = Some((i, key));
        }
    }
    let holder = holder.map(|(i, _)| loads[i].profile());

    // Progress multiplier from SM availability. Effective demands scale
    // with it: a kernel progressing at half speed issues half the
    // instructions and memory traffic. The totals fold left to right from
    // -0.0, exactly as `Iterator::sum` does.
    mult.clear();
    eff_c.clear();
    eff_m.clear();
    let (mut total_compute, mut total_mem) = (-0.0, -0.0);
    for (l, &g) in loads.iter().zip(grants.iter()) {
        let alpha = match holder {
            Some(h) if g < l.sm_needed => interleave_alpha(params, l.profile(), h),
            // No holder (device empty of granted kernels): free dispatch.
            _ => 1.0,
        };
        let f = interleave_multiplier(g, l.sm_needed, alpha);
        let (c, m) = (l.compute_demand * f, l.mem_demand * f);
        total_compute += c;
        total_mem += m;
        mult.push(f);
        eff_c.push(c);
        eff_m.push(m);
    }

    rates.clear();
    if total_compute <= 1.0 && total_mem <= 1.0 {
        rates.extend(loads.iter().zip(grants.iter()).zip(mult.iter()).map(|((l, &g), &f)| {
            KernelRate {
                sm_granted: g,
                rate: f,
                compute_used: f * l.compute_demand,
                mem_used: f * l.mem_demand,
            }
        }));
        return;
    }

    // Per-kernel rationing factors: proportional sharing of the delivered
    // capacity, discounted by SM share under overload (kernels with more
    // resident warps win warp-scheduler arbitration). One loop takes each
    // kernel's SM share and its weight on each over-capacity resource, and
    // sums the weights left to right from -0.0 as `Iterator::sum` does.
    let lambda = |total: f64| (total > 1.0).then_some(params.arbitration * (total - 1.0));
    let (lambda_c, lambda_m) = (lambda(total_compute), lambda(total_mem));
    let (mut weight_sum_c, mut weight_sum_m) = (-0.0, -0.0);
    weights.clear();
    for ((&g, &c), &m) in grants.iter().zip(eff_c.iter()).zip(eff_m.iter()) {
        let share = g as f64 / params.num_sms.max(1) as f64;
        let w_c = lambda_c.map_or(0.0, |l| arbitration_weight(c, l, share));
        let w_m = lambda_m.map_or(0.0, |l| arbitration_weight(m, l, share));
        weight_sum_c += w_c;
        weight_sum_m += w_m;
        weights.push((w_c, w_m));
    }
    let compute = lambda_c.and_then(|_| Rationing::new(total_compute, params.compute_beta, weight_sum_c));
    let mem = lambda_m.and_then(|_| Rationing::new(total_mem, params.mem_beta, weight_sum_m));
    rates.extend(loads.iter().enumerate().map(|(i, l)| {
        let f = mult[i];
        let (w_c, w_m) = weights[i];
        // Rate limited by the most-contended resource the kernel uses.
        let mut rate = f;
        if l.compute_demand > 0.0 {
            rate = rate.min(f * compute.map_or(1.0, |r| r.factor(w_c, eff_c[i])));
        }
        if l.mem_demand > 0.0 {
            rate = rate.min(f * mem.map_or(1.0, |r| r.factor(w_m, eff_m[i])));
        }
        KernelRate {
            sm_granted: grants[i],
            rate,
            compute_used: rate * l.compute_demand,
            mem_used: rate * l.mem_demand,
        }
    }));
}

/// A kernel's arbitration weight on an over-capacity resource: its
/// effective demand `d` discounted by `1 + lambda * (1 - share)`, where
/// `lambda` is `arb * (total - 1)`.
fn arbitration_weight(d: f64, lambda: f64, share: f64) -> f64 {
    d / (1.0 + lambda * (1.0 - share.clamp(0.0, 1.0)))
}

/// One over-capacity resource's arbitration: the capacity it delivers and
/// the sum of the kernels' arbitration weights. With a kernel's own weight
/// and effective demand they give its factor in [`arbitrated_factors`].
#[derive(Clone, Copy)]
struct Rationing {
    delivered_total: f64,
    weight_sum: f64,
}

impl Rationing {
    /// The arbitration of a resource with total demand `total > 1`, or
    /// `None` when no kernel weighs on it and every factor is 1.
    fn new(total: f64, beta: f64, weight_sum: f64) -> Option<Self> {
        (weight_sum > 0.0).then(|| Rationing {
            delivered_total: total * rationing_factor(total, beta),
            weight_sum,
        })
    }

    /// The factor of a kernel with arbitration weight `w` and effective
    /// demand `d`, clamped at 1.
    fn factor(self, w: f64, d: f64) -> f64 {
        if d <= 0.0 {
            1.0
        } else {
            (self.delivered_total * w / (self.weight_sum * d)).min(1.0)
        }
    }
}

/// Per-kernel rationing factors for one resource.
///
/// Under capacity every factor is 1. Over capacity the resource delivers
/// `D * rationing_factor(D, beta)` in total, split in proportion to each
/// kernel's effective demand discounted by `1 + arb * (D-1) * (1 - share)`:
/// at mild overload this is near-proportional sharing; at heavy overload
/// kernels occupying few SMs (few resident warps) lose arbitration. Factors
/// are clamped at 1 (no kernel exceeds its solo rate).
pub fn arbitrated_factors(
    total: f64,
    beta: f64,
    arb: f64,
    eff_demands: &[f64],
    sm_shares: &[f64],
) -> Vec<f64> {
    let n = eff_demands.len();
    if total <= 1.0 {
        return vec![1.0; n];
    }
    let lambda = arb * (total - 1.0);
    let weights: Vec<f64> = eff_demands
        .iter()
        .zip(sm_shares)
        .map(|(&d, &s)| arbitration_weight(d, lambda, s))
        .collect();
    match Rationing::new(total, beta, weights.iter().sum()) {
        Some(r) => weights.iter().zip(eff_demands).map(|(&w, &d)| r.factor(w, d)).collect(),
        None => vec![1.0; n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::from(&crate::spec::GpuSpec::v100_16gb())
    }

    fn load(sm: u32, c: f64, m: f64, urg: i16, seq: u64) -> KernelLoad {
        KernelLoad {
            sm_needed: sm,
            sm_granted: 0,
            compute_demand: c,
            mem_demand: m,
            urgency: urg,
            seq,
        }
    }

    fn eval(loads: &[KernelLoad]) -> Vec<KernelRate> {
        evaluate(&params(), loads)
    }

    #[test]
    fn solo_kernel_runs_at_full_rate() {
        let rates = eval(&[load(40, 0.5, 0.3, 0, 0)]);
        assert_eq!(rates[0].sm_granted, 40);
        assert!((rates[0].rate - 1.0).abs() < 1e-12);
        assert!((rates[0].compute_used - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_profile_starved_kernel_crawls() {
        // Two compute kernels each wanting all 80 SMs: the first holds
        // everything; the second interleaves at alpha_same — Table 2's
        // Conv2d+Conv2d serialization.
        let rates = eval(&[load(80, 0.89, 0.20, 0, 0), load(80, 0.89, 0.20, 0, 1)]);
        assert_eq!(rates[0].sm_granted, 80);
        assert_eq!(rates[1].sm_granted, 0);
        let p = params();
        assert!(rates[1].rate <= p.alpha_same + 1e-9, "rate {}", rates[1].rate);
        assert!(rates[0].rate > 0.95);
    }

    #[test]
    fn opposite_profile_starved_kernel_interleaves() {
        // A memory-bound kernel starved by a compute holder runs at
        // alpha_opposite — Table 2's Conv2d+BN2d.
        let rates = eval(&[load(80, 0.89, 0.20, 0, 0), load(32, 0.14, 0.80, 0, 1)]);
        assert_eq!(rates[1].sm_granted, 0);
        let p = params();
        assert!(
            (rates[1].rate - p.alpha_opposite).abs() < 0.02,
            "rate {}",
            rates[1].rate
        );
        // The holder keeps running near full speed.
        assert!(rates[0].rate > 0.95, "holder rate {}", rates[0].rate);
    }

    #[test]
    fn unknown_profile_gets_mixed_alpha() {
        // Low-utilization waiter (unknown class) vs a compute holder.
        let rates = eval(&[load(80, 0.89, 0.20, 0, 0), load(40, 0.20, 0.15, 0, 1)]);
        let p = params();
        assert!((rates[1].rate - p.alpha_mixed).abs() < 0.05, "rate {}", rates[1].rate);
    }

    #[test]
    fn memory_contention_rations_proportionally() {
        // Two BN2d-like kernels: 0.8 + 0.8 memory demand, both fit on SMs.
        let rates = eval(&[load(32, 0.14, 0.80, 0, 0), load(32, 0.14, 0.80, 0, 1)]);
        let p = params();
        let factor = 1.0 / (1.6 + p.mem_beta * 0.6);
        for r in &rates {
            assert!((r.rate - factor).abs() < 1e-9, "rate {}", r.rate);
        }
        let total_mem: f64 = rates.iter().map(|r| r.mem_used).sum();
        assert!(total_mem <= 1.0 + 1e-9);
    }

    #[test]
    fn opposite_profiles_with_grants_overlap_cleanly() {
        // Conv2d (compute) + BN2d (memory) both holding their SMs: mild
        // overlap (compute D = 1.03) costs each only a few percent.
        let rates = eval(&[load(48, 0.89, 0.20, 0, 0), load(32, 0.14, 0.80, 0, 1)]);
        for r in &rates {
            assert!(r.rate > 0.90, "rate {}", r.rate);
        }
    }

    #[test]
    fn priority_wins_free_sms() {
        // On a fresh allocation round the high-urgency kernel is served
        // first even though it was enqueued last.
        let loads = [
            load(50, 0.3, 0.2, 0, 0),
            load(50, 0.3, 0.2, 0, 1),
            load(50, 0.3, 0.2, 5, 2),
        ];
        let grants = allocate_sms(80, &loads);
        assert_eq!(grants[2], 50); // high urgency first
        assert_eq!(grants[0], 30); // then FIFO among equals
        assert_eq!(grants[1], 0);
    }

    #[test]
    fn grants_are_sticky() {
        // A kernel that already holds SMs keeps them even when a
        // higher-urgency kernel arrives (no preemption).
        let loads = [
            KernelLoad {
                sm_granted: 80,
                ..load(80, 0.9, 0.1, 0, 0)
            },
            load(40, 0.5, 0.1, 5, 1),
        ];
        let grants = allocate_sms(80, &loads);
        assert_eq!(grants[0], 80);
        assert_eq!(grants[1], 0);
    }

    #[test]
    fn partial_grant_blends_with_interleave() {
        // Granted 40 of 80 wanted, unknown-profile pair: multiplier =
        // 0.5 + alpha_mixed * 0.5.
        let loads = [
            KernelLoad {
                sm_granted: 40,
                ..load(40, 0.2, 0.1, 0, 0)
            },
            load(80, 0.4, 0.2, 0, 1),
        ];
        let rates = eval(&loads);
        let p = params();
        assert_eq!(rates[1].sm_granted, 40);
        let expect = 0.5 + p.alpha_mixed * 0.5;
        assert!((rates[1].rate - expect).abs() < 1e-12, "rate {}", rates[1].rate);
    }

    #[test]
    fn interleave_multiplier_bounds() {
        assert_eq!(interleave_multiplier(80, 80, 0.5), 1.0);
        assert_eq!(interleave_multiplier(0, 80, 0.5), 0.5);
        assert_eq!(interleave_multiplier(40, 80, 0.5), 0.75);
        assert_eq!(interleave_multiplier(0, 0, 0.5), 1.0);
        // Over-grant clamps.
        assert_eq!(interleave_multiplier(100, 80, 0.5), 1.0);
    }

    #[test]
    fn alpha_relation_table() {
        use ResourceProfile::*;
        let p = params();
        assert_eq!(interleave_alpha(&p, ComputeBound, MemoryBound), p.alpha_opposite);
        assert_eq!(interleave_alpha(&p, MemoryBound, ComputeBound), p.alpha_opposite);
        assert_eq!(interleave_alpha(&p, ComputeBound, ComputeBound), p.alpha_same);
        assert_eq!(interleave_alpha(&p, MemoryBound, MemoryBound), p.alpha_same);
        assert_eq!(interleave_alpha(&p, Unknown, ComputeBound), p.alpha_mixed);
        assert_eq!(interleave_alpha(&p, ComputeBound, Unknown), p.alpha_mixed);
    }

    #[test]
    fn work_conservation_under_oversubscription() {
        // However many kernels pile on, consumed resources never exceed
        // device capacity.
        let loads: Vec<KernelLoad> = (0..10).map(|i| load(8, 0.5, 0.6, 0, i)).collect();
        let rates = eval(&loads);
        let c: f64 = rates.iter().map(|r| r.compute_used).sum();
        let m: f64 = rates.iter().map(|r| r.mem_used).sum();
        assert!(c <= 1.0 + 1e-9, "compute {c}");
        assert!(m <= 1.0 + 1e-9, "memory {m}");
    }

    #[test]
    fn zero_demand_kernel_only_sm_limited() {
        // A pure-latency kernel (no measurable resource demand) runs at its
        // interleave multiplier (1.0 when fully granted).
        let rates = eval(&[load(20, 0.0, 0.0, 0, 0)]);
        assert!((rates[0].rate - 1.0).abs() < 1e-12);
        assert_eq!(rates[0].compute_used, 0.0);
    }
}
