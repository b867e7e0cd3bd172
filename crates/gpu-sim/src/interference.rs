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
    sm_share: Vec<f64>,
    eff_c: Vec<f64>,
    eff_m: Vec<f64>,
    compute_factors: Vec<f64>,
    mem_factors: Vec<f64>,
    weights: Vec<f64>,
}

impl EvalScratch {
    /// The per-kernel compute / memory rationing factors of the last
    /// [`evaluate_into`] call (parallel to its `loads`).
    pub fn factors(&self) -> (&[f64], &[f64]) {
        (&self.compute_factors, &self.mem_factors)
    }
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
    order.clear();
    order.extend(0..loads.len());
    // Unstable sort to avoid the stable sort's internal allocation; the key
    // is unique per load (`seq` is the engine's unique dispatch sequence), so
    // the resulting order is identical to a stable sort.
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(loads[i].urgency), loads[i].seq));
    grants.clear();
    grants.extend(loads.iter().map(|l| l.sm_granted));
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

/// Evaluates the full interference model: grants + rates + consumed resources.
pub fn evaluate(params: &ModelParams, loads: &[KernelLoad]) -> Vec<KernelRate> {
    let mut scratch = EvalScratch::default();
    evaluate_into(params, loads, &mut scratch);
    scratch.rates
}

/// [`evaluate`] into reusable buffers: the result lands in `scratch.rates`
/// (parallel to `loads`) and no allocation happens once the buffers have
/// grown to the run's peak concurrency. Arithmetic is performed in exactly
/// the order of [`evaluate`], so results are bit-identical.
pub fn evaluate_into(params: &ModelParams, loads: &[KernelLoad], scratch: &mut EvalScratch) {
    let EvalScratch {
        rates,
        grants,
        order,
        mult,
        sm_share,
        eff_c,
        eff_m,
        compute_factors,
        mem_factors,
        weights,
    } = scratch;
    allocate_sms_into(params.num_sms, loads, grants, order);

    // Dominant SM-holder profile: the class of the kernel holding the most
    // SMs (ties: earliest dispatch). Starved kernels interleave against it.
    let holder = loads
        .iter()
        .zip(grants.iter())
        .filter(|(_, &g)| g > 0)
        .max_by_key(|(l, &g)| (g, std::cmp::Reverse(l.seq)))
        .map(|(l, _)| l.profile());

    // Progress multiplier from SM availability.
    mult.clear();
    mult.extend(loads.iter().zip(grants.iter()).map(|(l, &g)| {
        let alpha = match holder {
            Some(h) if g < l.sm_needed => interleave_alpha(params, l.profile(), h),
            // No holder (device empty of granted kernels): free dispatch.
            _ => 1.0,
        };
        interleave_multiplier(g, l.sm_needed, alpha)
    }));

    // Effective demands scale with the multiplier: a kernel progressing at
    // half speed issues half the instructions and memory traffic.
    eff_c.clear();
    eff_c.extend(
        loads
            .iter()
            .zip(mult.iter())
            .map(|(l, &f)| l.compute_demand * f),
    );
    eff_m.clear();
    eff_m.extend(
        loads
            .iter()
            .zip(mult.iter())
            .map(|(l, &f)| l.mem_demand * f),
    );
    let total_compute: f64 = eff_c.iter().sum();
    let total_mem: f64 = eff_m.iter().sum();

    // Per-kernel rationing factors: proportional sharing of the delivered
    // capacity, discounted by SM share under overload (kernels with more
    // resident warps win warp-scheduler arbitration).
    sm_share.clear();
    sm_share.extend(
        grants
            .iter()
            .map(|&g| g as f64 / params.num_sms.max(1) as f64),
    );
    arbitrated_factors_into(
        total_compute,
        params.compute_beta,
        params.arbitration,
        eff_c,
        sm_share,
        weights,
        compute_factors,
    );
    arbitrated_factors_into(
        total_mem,
        params.mem_beta,
        params.arbitration,
        eff_m,
        sm_share,
        weights,
        mem_factors,
    );

    rates.clear();
    rates.extend(loads.iter().enumerate().map(|(i, l)| {
        let f = mult[i];
        // Rate limited by the most-contended resource the kernel uses.
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
    }));
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
    let mut out = Vec::new();
    arbitrated_factors_into(total, beta, arb, eff_demands, sm_shares, &mut Vec::new(), &mut out);
    out
}

/// [`arbitrated_factors`] into caller-owned buffers (`weights` is scratch).
fn arbitrated_factors_into(
    total: f64,
    beta: f64,
    arb: f64,
    eff_demands: &[f64],
    sm_shares: &[f64],
    weights: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    let n = eff_demands.len();
    out.clear();
    if total <= 1.0 {
        out.resize(n, 1.0);
        return;
    }
    let lambda = arb * (total - 1.0);
    weights.clear();
    weights.extend(
        eff_demands
            .iter()
            .zip(sm_shares)
            .map(|(&d, &s)| d / (1.0 + lambda * (1.0 - s.clamp(0.0, 1.0)))),
    );
    let weight_sum: f64 = weights.iter().sum();
    if weight_sum <= 0.0 {
        out.resize(n, 1.0);
        return;
    }
    let delivered_total = total * rationing_factor(total, beta);
    out.extend(weights.iter().zip(eff_demands).map(|(&w, &d)| {
        if d <= 0.0 {
            1.0
        } else {
            (delivered_total * w / (weight_sum * d)).min(1.0)
        }
    }));
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
