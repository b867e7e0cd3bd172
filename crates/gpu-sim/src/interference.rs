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

/// Which outputs an [`IncrementalEval::refresh`] call recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refreshed {
    /// No membership change and no dirty kernel since the last refresh:
    /// every cached output is still current and nothing was touched.
    Unchanged,
    /// Only the kernels listed by [`IncrementalEval::changed`] were
    /// recomputed (the device stayed under capacity, so untouched kernels
    /// keep their exact rates).
    Dirty,
    /// Every kernel's outputs were recomputed (over-capacity rationing, a
    /// capacity transition, or wholesale invalidation).
    All,
}

/// Incrementally maintained interference evaluation over a kernel set with
/// membership churn, **bit-identical** to running [`evaluate_into`] from
/// scratch on the same loads.
///
/// # Delta rules (DESIGN.md §13)
///
/// The full evaluator has three stages; each admits an exact delta because of
/// one structural property:
///
/// 1. **Grants.** Grants are sticky (never revoked), so the greedy allocator
///    restricted to *starved* kernels — run at refresh time in the same
///    (urgency desc, seq) order — assigns exactly the grants the full greedy
///    would: fully granted kernels take nothing from it by construction.
///    After every refresh the *grant invariant* holds: either no SM is free
///    or no kernel is starved.
/// 2. **Multipliers.** A kernel's interleave multiplier is a pure function of
///    its own (granted, needed, profile) and the dominant holder's profile.
///    It is cached and recomputed only for *dirty* kernels (new, topped-up)
///    — plus every starved kernel when the holder's profile changes, since
///    that flips their interleave alpha.
/// 3. **Rates.** The effective-demand totals are re-summed each refresh in
///    load order (an ordered float sum cannot be delta-updated bit-exactly,
///    but summing two cached arrays is cheap). Under capacity both rationing
///    factors are exactly 1.0 and each rate equals its multiplier bitwise,
///    so only dirty kernels are rewritten. Over capacity — or on the
///    transition back under — every factor depends on the totals, so the
///    refresh falls back to the full `arbitrated_factors_into` arithmetic
///    over all kernels (the *exact fallback*).
///
/// # Dirty-set propagation
///
/// [`IncrementalEval::add`] marks the new kernel dirty; the refresh-time
/// top-up marks every kernel whose grant grew; a holder-profile change marks
/// every starved kernel. [`IncrementalEval::remove_sorted`] compacts the
/// arrays, which invalidates pending indices — any dirt pending at removal
/// time is promoted to a whole-set invalidation rather than remapped (the
/// engine refreshes between completion rounds, so this is the rare path).
///
/// # Preconditions
///
/// Pre-granted loads must respect device capacity: the sum of `sm_granted`
/// across live loads must never exceed `num_sms` (debug-asserted). The
/// engine's dispatch path always adds with `sm_granted == 0`.
#[derive(Debug)]
pub struct IncrementalEval {
    params: ModelParams,
    /// Live loads, in membership order (the engine's running order). Grants
    /// are kept current (sticky + refresh-time top-ups).
    loads: Vec<KernelLoad>,
    /// Cached roofline class of each load.
    profiles: Vec<ResourceProfile>,
    /// Cached interleave multiplier of each load.
    mult: Vec<f64>,
    /// Cached effective demands (`demand * mult`), summed each refresh.
    eff_c: Vec<f64>,
    eff_m: Vec<f64>,
    /// Cached model output, parallel to `loads`. Entries for kernels added
    /// after the last refresh hold a zero-rate placeholder.
    rates: Vec<KernelRate>,
    /// SMs not granted to anyone: `num_sms - sum(sm_granted)`, exactly.
    free: u32,
    /// Indices of kernels with `sm_granted < sm_needed`, kept sorted by the
    /// full allocator's (urgency desc, seq) key at all times. The refresh-
    /// time top-up walks this list from the front instead of rebuilding and
    /// sorting the starved set on every refresh — membership changes are
    /// O(log s) inserts (adds) and order-preserving remaps (removals), so
    /// steady-state refreshes pay O(granted) instead of O(s log s).
    starved_order: Vec<u32>,
    /// Dominant SM-holder profile as of the last refresh that consulted it.
    holder: Option<ResourceProfile>,
    /// A grant changed since `holder` was last recomputed.
    holder_dirty: bool,
    /// Indices whose multiplier/rate must be recomputed at the next refresh.
    dirty: Vec<u32>,
    /// Indices recomputed by the last refresh (valid after `Dirty`).
    changed: Vec<u32>,
    /// Indices whose output `rate` changed *bitwise* during the last
    /// refresh (valid after any refresh that did work; no duplicates —
    /// every output position is written at most once with a bit compare).
    /// This is the engine's rate-class change feed: positions absent from
    /// it kept their rate bit-for-bit. A newly added kernel whose first
    /// computed rate is exactly `0.0` (possible only with a zero interleave
    /// alpha) does not appear — it matches its zero-rate placeholder and
    /// stays invisible, which is correct: it makes no progress.
    rate_delta: Vec<u32>,
    /// Recompute everything at the next refresh (supersedes `dirty`).
    all_dirty: bool,
    /// Membership changed since the last refresh (totals must be re-checked
    /// even when no individual kernel is dirty, e.g. a pure removal).
    membership_changed: bool,
    /// The last refresh ended over capacity (factors < 1 were in effect).
    was_over: bool,
    /// `compute_factors`/`mem_factors` hold the last refresh's output (only
    /// the over-capacity path materializes them).
    factors_valid: bool,
    sm_share: Vec<f64>,
    compute_factors: Vec<f64>,
    mem_factors: Vec<f64>,
    weights: Vec<f64>,
    /// Snapshot of `loads` at the end of the last over-capacity (full-path)
    /// refresh. When the post-top-up composition matches it field-for-field
    /// (ignoring `seq`), the derived values recorded alongside it
    /// (`memo_mult`/`memo_eff_*`/`memo_rates`, plus the still-cached factor
    /// arrays and holder) are bitwise the output a recompute would produce,
    /// and the full path collapses to restoring them (see the memo step in
    /// [`IncrementalEval::refresh`]).
    memo_sig: Vec<KernelLoad>,
    memo_mult: Vec<f64>,
    memo_eff_c: Vec<f64>,
    memo_eff_m: Vec<f64>,
    memo_rates: Vec<KernelRate>,
    /// `memo_sig` was recorded with `seq_monotone` holding (the tie-break
    /// equivalence argument needs it).
    memo_valid: bool,
    /// Every `add` so far carried a strictly increasing `seq` — true for the
    /// engine (dispatch order), checked defensively for direct users.
    seq_monotone: bool,
    /// Smallest `seq` the next `add` may carry while staying monotone.
    next_min_seq: u64,
    evals: u64,
    full_evals: u64,
    memo_hits: u64,
}

impl IncrementalEval {
    /// An empty evaluator for a device with the given model parameters.
    pub fn new(params: ModelParams) -> Self {
        IncrementalEval {
            free: params.num_sms,
            params,
            loads: Vec::new(),
            profiles: Vec::new(),
            mult: Vec::new(),
            eff_c: Vec::new(),
            eff_m: Vec::new(),
            rates: Vec::new(),
            starved_order: Vec::new(),
            holder: None,
            holder_dirty: false,
            dirty: Vec::new(),
            changed: Vec::new(),
            rate_delta: Vec::new(),
            all_dirty: false,
            membership_changed: false,
            was_over: false,
            factors_valid: false,
            sm_share: Vec::new(),
            compute_factors: Vec::new(),
            mem_factors: Vec::new(),
            weights: Vec::new(),
            memo_sig: Vec::new(),
            memo_mult: Vec::new(),
            memo_eff_c: Vec::new(),
            memo_eff_m: Vec::new(),
            memo_rates: Vec::new(),
            memo_valid: false,
            seq_monotone: true,
            next_min_seq: 0,
            evals: 0,
            full_evals: 0,
            memo_hits: 0,
        }
    }

    /// Number of live loads.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when no load is live.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// The live loads with their current (sticky) grants, in membership
    /// order. Feeding these to [`evaluate_into`] right after a refresh
    /// reproduces [`IncrementalEval::rates`] bit-for-bit (the differential
    /// equivalence property).
    pub fn loads(&self) -> &[KernelLoad] {
        &self.loads
    }

    /// Model output parallel to [`IncrementalEval::loads`]. Current as of
    /// the last [`IncrementalEval::refresh`]; kernels added since hold a
    /// zero-rate placeholder.
    pub fn rates(&self) -> &[KernelRate] {
        &self.rates
    }

    /// Indices recomputed by the last refresh. Meaningful only directly
    /// after a refresh returned [`Refreshed::Dirty`]; may contain duplicates.
    pub fn changed(&self) -> &[u32] {
        &self.changed
    }

    /// Positions whose output `rate` changed bitwise during the last
    /// refresh (duplicate-free). Meaningful only directly after a refresh
    /// that returned anything but [`Refreshed::Unchanged`]: membership
    /// compaction ([`IncrementalEval::remove_sorted`]) shifts positions
    /// without emitting deltas, so the list must be consumed before the
    /// next membership change.
    pub fn rate_delta(&self) -> &[u32] {
        &self.rate_delta
    }

    /// The rationing factors of the last refresh, when it took the
    /// over-capacity path; `None` means the device was under capacity and
    /// every factor is exactly 1.0 (not materialized).
    pub fn factors(&self) -> Option<(&[f64], &[f64])> {
        self.factors_valid
            .then_some((&self.compute_factors[..], &self.mem_factors[..]))
    }

    /// Refreshes that did any work (skipped no-op refreshes excluded).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Refreshes that took the full (all-kernel) recomputation path.
    pub fn full_evals(&self) -> u64 {
        self.full_evals
    }

    /// Over-capacity refreshes answered from the steady-state memo (cached
    /// full-path output reused because the composition was unchanged).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Current composition equals the snapshot taken at the last full-path
    /// refresh. Floats compare bitwise: equality must imply an identical
    /// recompute, and `-0.0 == 0.0` / NaN semantics would weaken that.
    fn memo_matches(&self) -> bool {
        self.memo_sig.len() == self.loads.len()
            && self
                .memo_sig
                .iter()
                .zip(self.loads.iter())
                .all(|(a, b)| {
                    a.sm_needed == b.sm_needed
                        && a.sm_granted == b.sm_granted
                        && a.compute_demand.to_bits() == b.compute_demand.to_bits()
                        && a.mem_demand.to_bits() == b.mem_demand.to_bits()
                        && a.urgency == b.urgency
                })
    }

    /// Adds a kernel; returns its index. The grant is assigned by the next
    /// [`IncrementalEval::refresh`] (so a batch of same-instant adds is
    /// granted in (urgency, seq) order exactly like one full evaluation, not
    /// in add order).
    pub fn add(&mut self, load: KernelLoad) -> usize {
        debug_assert!(
            load.sm_granted <= self.free,
            "pre-granted SMs exceed free capacity"
        );
        self.membership_changed = true;
        if load.seq >= self.next_min_seq {
            self.next_min_seq = load.seq + 1;
        } else {
            self.seq_monotone = false;
            self.memo_valid = false;
        }
        self.free = self.free.saturating_sub(load.sm_granted);
        if load.sm_granted > 0 {
            self.holder_dirty = true;
        }
        let starved = load.sm_granted < load.sm_needed;
        let i = self.loads.len();
        self.profiles.push(load.profile());
        self.mult.push(0.0);
        self.eff_c.push(0.0);
        self.eff_m.push(0.0);
        self.rates.push(KernelRate {
            sm_granted: load.sm_granted,
            rate: 0.0,
            compute_used: 0.0,
            mem_used: 0.0,
        });
        self.loads.push(load);
        if starved {
            self.starved_insert(i as u32);
        }
        if !self.all_dirty {
            self.dirty.push(i as u32);
        }
        i
    }

    /// Inserts `i` into `starved_order` at its (urgency desc, seq) position.
    /// The common case — the engine adds kernels in dispatch order, so the
    /// new key is the largest — is an O(1) append; out-of-order keys pay a
    /// binary search plus shift. Equal keys (possible only for direct users
    /// that reuse `seq`) land after their equals, matching a stable sort.
    fn starved_insert(&mut self, i: u32) {
        let loads = &self.loads;
        let key_of = |j: u32| {
            let l = &loads[j as usize];
            (std::cmp::Reverse(l.urgency), l.seq)
        };
        let key = key_of(i);
        if self.starved_order.last().is_none_or(|&j| key_of(j) <= key) {
            self.starved_order.push(i);
            return;
        }
        let at = self.starved_order.partition_point(|&j| key_of(j) <= key);
        self.starved_order.insert(at, i);
    }

    /// Removes the loads at `positions` (ascending, unique, in range) and
    /// compacts, preserving the relative order of survivors. Freed SMs are
    /// re-granted by the next refresh's top-up pass.
    pub fn remove_sorted(&mut self, positions: &[u32]) {
        if positions.is_empty() {
            return;
        }
        self.membership_changed = true;
        // Compaction shifts indices; pending dirt would dangle. Promote it
        // to a whole-set invalidation (rare: the engine refreshes between
        // completion rounds, so dirt is normally consumed before removals).
        if !self.dirty.is_empty() {
            self.dirty.clear();
            self.all_dirty = true;
        }
        // Whole-set removal (a homogeneous wave finishing together) needs
        // no compaction shuffle: release the grants and clear.
        if positions.len() == self.loads.len() {
            for l in &self.loads {
                self.free += l.sm_granted;
                if l.sm_granted > 0 {
                    self.holder_dirty = true;
                }
            }
            self.starved_order.clear();
            self.loads.clear();
            self.profiles.clear();
            self.mult.clear();
            self.eff_c.clear();
            self.eff_m.clear();
            self.rates.clear();
            return;
        }
        let mut pi = 0usize;
        let mut write = 0usize;
        for read in 0..self.loads.len() {
            if pi < positions.len() && positions[pi] as usize == read {
                let l = self.loads[read];
                self.free += l.sm_granted;
                if l.sm_granted > 0 {
                    self.holder_dirty = true;
                }
                pi += 1;
                continue;
            }
            if write != read {
                self.loads[write] = self.loads[read];
                self.profiles[write] = self.profiles[read];
                self.mult[write] = self.mult[read];
                self.eff_c[write] = self.eff_c[read];
                self.eff_m[write] = self.eff_m[read];
                self.rates[write] = self.rates[read];
            }
            write += 1;
        }
        debug_assert_eq!(pi, positions.len(), "positions ascending and in range");
        // Remap the starved order through the compaction: removed entries
        // drop out, survivors shift down by the number of removed positions
        // below them (`Err(k)` from the binary search is exactly that
        // count). Keys are unchanged, so relative order is preserved.
        self.starved_order.retain_mut(|j| match positions.binary_search(j) {
            Ok(_) => false,
            Err(k) => {
                *j -= k as u32;
                true
            }
        });
        self.loads.truncate(write);
        self.profiles.truncate(write);
        self.mult.truncate(write);
        self.eff_c.truncate(write);
        self.eff_m.truncate(write);
        self.rates.truncate(write);
    }

    /// Removes every load (device reset / abort path).
    pub fn clear(&mut self) {
        self.membership_changed = true;
        self.loads.clear();
        self.profiles.clear();
        self.mult.clear();
        self.eff_c.clear();
        self.eff_m.clear();
        self.rates.clear();
        self.free = self.params.num_sms;
        self.starved_order.clear();
        self.holder = None;
        self.holder_dirty = false;
        self.dirty.clear();
        self.rate_delta.clear();
        self.all_dirty = false;
        self.memo_valid = false;
    }

    /// Recomputes whatever the churn since the last refresh invalidated.
    ///
    /// Returns what was recomputed; after [`Refreshed::Dirty`] the affected
    /// indices are in [`IncrementalEval::changed`]. The result state is
    /// bit-identical to [`evaluate_into`] on [`IncrementalEval::loads`].
    pub fn refresh(&mut self) -> Refreshed {
        if !self.membership_changed && self.dirty.is_empty() && !self.all_dirty {
            return Refreshed::Unchanged;
        }
        self.membership_changed = false;
        self.evals += 1;
        self.rate_delta.clear();
        let n = self.loads.len();
        if n == 0 {
            self.dirty.clear();
            self.changed.clear();
            self.all_dirty = false;
            self.holder = None;
            self.holder_dirty = false;
            self.was_over = false;
            self.factors_valid = false;
            return Refreshed::All;
        }

        // 0. Grant top-up: the greedy allocator restricted to starved
        //    kernels, walking the incrementally maintained (urgency desc,
        //    seq) order — the exact visit order the full allocator's sort
        //    would produce. Restores the grant invariant (free == 0 or no
        //    kernel starved). Every visited kernel takes at least one SM,
        //    so fully granted kernels form a prefix that is drained from
        //    the list; a partial grant exhausts `free` and stops the walk.
        if self.free > 0 && !self.starved_order.is_empty() {
            let mut filled = 0usize;
            for ti in 0..self.starved_order.len() {
                if self.free == 0 {
                    break;
                }
                let i = self.starved_order[ti] as usize;
                let l = &mut self.loads[i];
                let take = (l.sm_needed - l.sm_granted).min(self.free);
                l.sm_granted += take;
                self.free -= take;
                self.holder_dirty = true;
                if !self.all_dirty {
                    self.dirty.push(i as u32);
                }
                if l.sm_granted == l.sm_needed {
                    filled = ti + 1;
                } else {
                    break;
                }
            }
            self.starved_order.drain(..filled);
        }

        // Steady-state memo: over-capacity churn often replaces finished
        // kernels with identical successors (waves of a homogeneous
        // workload). When the post-top-up composition matches the snapshot
        // taken at the last full-path refresh field-for-field, every cached
        // derived value is bitwise what a recompute would produce —
        // multipliers and effective demands are pure per-position functions
        // of (load, holder profile, params); the ordered totals, factors,
        // and rates follow from those; and the holder tie-break lands on
        // the same position because `seq` is strictly increasing along the
        // array (dispatch order), so "max grant, earliest seq" is a
        // function of positions alone. Skip straight to the cached output.
        // `seq` itself is excluded from the comparison: it only ever acts
        // through that positional tie-break.
        if self.was_over && self.memo_valid && self.memo_matches() {
            self.memo_hits += 1;
            // Kernels added since the last refresh hold zero placeholders
            // in the derived arrays; restore every position from the
            // snapshot (a straight copy — the certified recompute output
            // for this composition). Element loops instead of
            // `copy_from_slice`: the running set is typically a handful of
            // kernels, and four dynamic-length `memcpy` calls per refresh
            // cost more than the copies themselves.
            let n = self.loads.len();
            for i in 0..n {
                self.mult[i] = self.memo_mult[i];
                self.eff_c[i] = self.memo_eff_c[i];
                self.eff_m[i] = self.memo_eff_m[i];
                let new = self.memo_rates[i];
                if self.rates[i].rate.to_bits() != new.rate.to_bits() {
                    self.rate_delta.push(i as u32);
                }
                self.rates[i] = new;
            }
            self.holder_dirty = false;
            self.all_dirty = false;
            self.dirty.clear();
            self.changed.clear();
            // `was_over`/`factors_valid` stay set: the device is still over
            // capacity and the factor arrays still hold the full-path
            // output.
            return Refreshed::All;
        }

        // 1. Dominant-holder profile: consulted only by starved kernels, so
        //    it is recomputed lazily. A profile change flips the interleave
        //    alpha of every starved kernel — mark them all dirty.
        if !self.starved_order.is_empty() && self.holder_dirty {
            self.holder_dirty = false;
            let mut best: Option<(u32, std::cmp::Reverse<u64>)> = None;
            let mut best_profile = None;
            for (l, &p) in self.loads.iter().zip(self.profiles.iter()) {
                if l.sm_granted == 0 {
                    continue;
                }
                let key = (l.sm_granted, std::cmp::Reverse(l.seq));
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    best_profile = Some(p);
                }
            }
            if best_profile != self.holder {
                self.holder = best_profile;
                if !self.all_dirty {
                    // Every starved kernel interleaves against the holder:
                    // its alpha just flipped, so its multiplier is stale.
                    for oi in 0..self.starved_order.len() {
                        let i = self.starved_order[oi];
                        self.dirty.push(i);
                    }
                }
            }
        }

        // 2. Multipliers + effective demands for invalidated kernels.
        if self.all_dirty {
            for i in 0..n {
                self.recompute_mult(i);
            }
        } else {
            for di in 0..self.dirty.len() {
                let i = self.dirty[di] as usize;
                self.recompute_mult(i);
            }
        }

        // 3. Ordered totals: identical summation order to `evaluate_into`.
        let total_c: f64 = self.eff_c.iter().sum();
        let total_m: f64 = self.eff_m.iter().sum();
        let over = total_c > 1.0 || total_m > 1.0;

        // 4. Rates.
        let result = if over {
            // Exact fallback: the factors couple every kernel through the
            // totals and the weight sum — rerun the full arithmetic.
            self.full_evals += 1;
            self.sm_share.clear();
            let denom = self.params.num_sms.max(1) as f64;
            self.sm_share
                .extend(self.loads.iter().map(|l| l.sm_granted as f64 / denom));
            arbitrated_factors_into(
                total_c,
                self.params.compute_beta,
                self.params.arbitration,
                &self.eff_c,
                &self.sm_share,
                &mut self.weights,
                &mut self.compute_factors,
            );
            arbitrated_factors_into(
                total_m,
                self.params.mem_beta,
                self.params.arbitration,
                &self.eff_m,
                &self.sm_share,
                &mut self.weights,
                &mut self.mem_factors,
            );
            // In-place rewrite (the arrays are always parallel) with a bit
            // compare per position, feeding the `rate_delta` change list.
            {
                let Self {
                    loads,
                    mult,
                    compute_factors,
                    mem_factors,
                    rates,
                    rate_delta,
                    ..
                } = self;
                for (i, l) in loads.iter().enumerate() {
                    let f = mult[i];
                    let mut rate = f;
                    if l.compute_demand > 0.0 {
                        rate = rate.min(f * compute_factors[i]);
                    }
                    if l.mem_demand > 0.0 {
                        rate = rate.min(f * mem_factors[i]);
                    }
                    if rates[i].rate.to_bits() != rate.to_bits() {
                        rate_delta.push(i as u32);
                    }
                    rates[i] = KernelRate {
                        sm_granted: l.sm_granted,
                        rate,
                        compute_used: rate * l.compute_demand,
                        mem_used: rate * l.mem_demand,
                    };
                }
            }
            self.factors_valid = true;
            // Record the memo snapshot alongside the outputs it certifies.
            if self.seq_monotone {
                self.memo_sig.clear();
                self.memo_sig.extend_from_slice(&self.loads);
                self.memo_mult.clear();
                self.memo_mult.extend_from_slice(&self.mult);
                self.memo_eff_c.clear();
                self.memo_eff_c.extend_from_slice(&self.eff_c);
                self.memo_eff_m.clear();
                self.memo_eff_m.extend_from_slice(&self.eff_m);
                self.memo_rates.clear();
                self.memo_rates.extend_from_slice(&self.rates);
                self.memo_valid = true;
            }
            Refreshed::All
        } else if self.was_over || self.all_dirty {
            // Capacity transition (or wholesale invalidation): factors
            // collapse to exactly 1.0 for everyone, so every rate reverts to
            // its multiplier — rewrite all.
            for i in 0..n {
                self.write_under_rate(i);
            }
            self.factors_valid = false;
            Refreshed::All
        } else {
            // Under capacity both before and after: untouched kernels keep
            // exact rates; only dirty ones are rewritten.
            for di in 0..self.dirty.len() {
                let i = self.dirty[di] as usize;
                self.write_under_rate(i);
            }
            self.factors_valid = false;
            Refreshed::Dirty
        };
        self.was_over = over;
        std::mem::swap(&mut self.dirty, &mut self.changed);
        self.dirty.clear();
        self.all_dirty = false;
        result
    }

    /// Recomputes `mult`/`eff_c`/`eff_m` for load `i` with the exact
    /// expressions of [`evaluate_into`].
    fn recompute_mult(&mut self, i: usize) {
        let l = self.loads[i];
        let alpha = if l.sm_granted < l.sm_needed {
            match self.holder {
                Some(h) => interleave_alpha(&self.params, self.profiles[i], h),
                // No holder (device empty of granted kernels): free dispatch.
                None => 1.0,
            }
        } else {
            1.0
        };
        let f = interleave_multiplier(l.sm_granted, l.sm_needed, alpha);
        self.mult[i] = f;
        self.eff_c[i] = l.compute_demand * f;
        self.eff_m[i] = l.mem_demand * f;
    }

    /// Writes the under-capacity rate for load `i`: with both factors
    /// exactly 1.0, `evaluate_into`'s `min(f, f * 1.0)` is bitwise `f`, and
    /// `rate * demand` equals the cached `demand * mult` (IEEE
    /// multiplication is commutative), so the cached arrays are the output.
    /// A bitwise rate change lands in `rate_delta`; dirty-list duplicates
    /// are deduplicated automatically (the second write compares equal).
    fn write_under_rate(&mut self, i: usize) {
        let l = self.loads[i];
        if self.rates[i].rate.to_bits() != self.mult[i].to_bits() {
            self.rate_delta.push(i as u32);
        }
        self.rates[i] = KernelRate {
            sm_granted: l.sm_granted,
            rate: self.mult[i],
            compute_used: self.eff_c[i],
            mem_used: self.eff_m[i],
        };
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
