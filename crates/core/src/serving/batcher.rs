//! The continuous batcher: the request source of the serving client.
//!
//! One serving **step** is in flight at a time: either a prefill pass for one
//! admitted request or a batched decode step for every running request. The
//! collocation world runs each step as one request of the high-priority
//! serving client and asks the batcher for the next step when the client
//! goes idle. At that step boundary the batcher delivers tokens, grows,
//! evicts and frees KV on the world's memory ledger, runs admission, and
//! returns the next step's op trace — continuous batching. It never submits
//! ops, keeps routes or schedules events; the world and its policy do.

use std::collections::VecDeque;
use std::sync::Arc;

use orion_desim::time::SimTime;
use orion_gpu::engine::GpuEngine;
use orion_gpu::error::GpuError;
use orion_workloads::models::llm::{
    kv_cache_bytes, llm_batched_decode_step, llm_prefill, LLM_KV_BYTES_PER_TOKEN,
};
use orion_workloads::Workload;

use super::admission::{choose_victim, ctx_bucket, StepTimePredictor};
use super::request::{ReqState, Request, RequestSpec};
use super::{ServingConfig, ServingReport};
use crate::client::RequestSource;
use crate::validate::{ValidateMode, Validator};

/// Fraction of the KV budget admission may plan up to: projected KV (live +
/// candidate prompt) must stay below `KV_WATERMARK × budget`. Headroom above
/// the watermark absorbs decode growth before evictions fire.
const KV_WATERMARK: f64 = 0.9;
/// Deadline-risk margin: a join is deferred when the predicted decode step
/// time at `batch + 1` exceeds `SLO_MARGIN × per_token` SLO. The margin
/// reserves room for collocation interference the solo prediction cannot
/// see.
const SLO_MARGIN: f64 = 0.75;
/// Evictions a request survives (re-queued, re-prefilled) before it is
/// dropped.
const MAX_EVICTIONS: u32 = 2;
/// Queued requests are shed once they have waited this long.
const MAX_QUEUE_WAIT: SimTime = SimTime::from_secs(2);

/// The serving step currently running as the client's request.
enum Step {
    /// Prefill pass for one admitted request.
    Prefill { req: usize },
    /// Batched decode step over the members snapshotted at its start.
    Decode { started: SimTime },
}

/// The batcher state machine. Requests arrive in trace order, so the k-th
/// arrival is `requests[k]`.
pub(super) struct Batcher<'c> {
    cfg: &'c ServingConfig,
    requests: Vec<Request>,
    next_arrival: usize,
    /// Admission queue (indices), arrival order; evictees re-enter at the
    /// front so they regain their KV before newer arrivals take it.
    queue: VecDeque<usize>,
    /// Admitted requests whose prefill has not run yet.
    prefill_q: VecDeque<usize>,
    /// The running decode batch.
    running: Vec<usize>,
    step: Option<Step>,
    /// Members of the in-flight (or just-finished) decode step with their
    /// token counts at its start; empty for a prefill step.
    members: Vec<(usize, u32)>,
    /// Recently used decode shapes, reused when `(batch, context bucket)`
    /// recurs.
    decode_shapes: DecodeShapes,
    predictor: StepTimePredictor,
    /// Ledger bytes held by the static allocations (weights, BE footprint).
    static_bytes: u64,
    kv_used: u64,
    /// Summed batch size over all decode steps.
    pub batch_sum: u64,
    /// The serving side of the report, filled in as the run goes.
    pub report: ServingReport,
    /// The step-boundary oracle, when the config arms one.
    pub oracle: Option<Validator>,
    /// First ledger error; the batcher idles from then on, and the run
    /// returns it.
    pub fatal: Option<GpuError>,
}

/// Decode shapes a batcher keeps. Over the seven serving runs of perfbench
/// llm_serving (seed 1, 1 s), 40,578 decode steps built 2,613 shapes with
/// one slot, 1,494 with four and 946 with eight. A kept shape holds about
/// 130 descriptors (~22 KB).
const DECODE_SHAPES: usize = 4;

/// The most recently used decode-step op traces, most recent first, keyed
/// by `(batch, context bucket)`. A reused trace hands the world the same
/// kernel descriptors, which the engine has interned and validated
/// already; a rebuilt one misses the engine's descriptor index on every
/// kernel. Prefill traces are not kept: prompt lengths rarely repeat.
#[derive(Debug, Default)]
struct DecodeShapes(Vec<((u32, u32), Arc<Workload>)>);

impl DecodeShapes {
    /// The trace for `key`, moved to the front; built (evicting the least
    /// recently used shape when full) on a miss.
    fn get_or_build(&mut self, key: (u32, u32)) -> Arc<Workload> {
        match self.0.iter().position(|(k, _)| *k == key) {
            Some(i) => self.0[..=i].rotate_right(1),
            None => {
                self.0.truncate(DECODE_SHAPES - 1);
                self.0.insert(0, (key, Arc::new(llm_batched_decode_step(key.0, key.1))));
            }
        }
        Arc::clone(&self.0[0].1)
    }
}

impl<'c> Batcher<'c> {
    /// A batcher over the request trace `specs`, with `static_bytes` of the
    /// device's capacity already held by static allocations.
    pub fn new(cfg: &'c ServingConfig, specs: &[RequestSpec], static_bytes: u64) -> Self {
        Batcher {
            cfg,
            requests: specs.iter().map(|&s| Request::new(s)).collect(),
            next_arrival: 0,
            queue: VecDeque::new(),
            prefill_q: VecDeque::new(),
            running: Vec::new(),
            step: None,
            members: Vec::new(),
            decode_shapes: DecodeShapes::default(),
            predictor: StepTimePredictor::default(),
            static_bytes,
            kv_used: 0,
            batch_sum: 0,
            report: ServingReport {
                arrived: specs.len() as u64,
                kv_budget_bytes: cfg.spec.memory_capacity - static_bytes,
                ledger_high_water: static_bytes,
                ledger_capacity: cfg.spec.memory_capacity,
                ..ServingReport::default()
            },
            oracle: cfg
                .validate
                .enabled()
                .then(|| Validator::new(cfg.validate == ValidateMode::Strict)),
            fatal: None,
        }
    }

    /// Handles the end of the completed step: deliver tokens, grow KV,
    /// complete or evict.
    fn finish_step(&mut self, step: Step, now: SimTime, gpu: &mut GpuEngine) {
        let warm = now >= self.cfg.warmup;
        match step {
            Step::Prefill { req } => {
                // The prefill's output is the request's first token.
                if self.grow_one_token(req, now, gpu) {
                    let r = &mut self.requests[req];
                    r.generated = 1;
                    r.last_token_at = now;
                    if warm {
                        self.report.tokens_generated += 1;
                        self.report.ttft.record(now - r.spec.arrival);
                    }
                    let done = r.generated >= r.spec.output_tokens;
                    r.state = ReqState::Running;
                    self.report.joins += 1;
                    if !self.running.is_empty() {
                        self.report.joins_mid += 1;
                    }
                    self.running.push(req);
                    if done {
                        self.complete(req, now, warm, gpu);
                    }
                }
            }
            Step::Decode { started } => {
                let dur = now - started;
                for m in 0..self.members.len() {
                    let i = self.members[m].0;
                    if self.requests[i].state != ReqState::Running {
                        continue; // evicted earlier in this boundary
                    }
                    let r = &mut self.requests[i];
                    if warm {
                        self.report.per_token.record(dur);
                        self.report.itl.record(now - r.last_token_at);
                        self.report.tokens_generated += 1;
                    }
                    r.generated += 1;
                    r.last_token_at = now;
                    if r.generated >= r.spec.output_tokens {
                        self.complete(i, now, warm, gpu);
                    } else {
                        // Grow KV for the token just produced; may evict.
                        self.grow_one_token(i, now, gpu);
                    }
                }
            }
        }
    }

    /// Extends `idx`'s KV allocation by one token, evicting under pressure.
    /// Returns `false` when `idx` itself had to be evicted (last resort).
    fn grow_one_token(&mut self, idx: usize, now: SimTime, gpu: &mut GpuEngine) -> bool {
        loop {
            // An admitted request always holds KV; a missing allocation is
            // the ledger-level error it would be.
            let Some(id) = self.requests[idx].kv else {
                self.fatal
                    .get_or_insert(GpuError::UnknownAllocation(idx as u64));
                return false;
            };
            match gpu.grow_immediate(id, LLM_KV_BYTES_PER_TOKEN) {
                Ok(()) => {
                    self.requests[idx].kv_tokens += 1;
                    self.kv_used += LLM_KV_BYTES_PER_TOKEN;
                    self.report.kv_peak_bytes = self.report.kv_peak_bytes.max(self.kv_used);
                    return true;
                }
                Err(GpuError::OutOfMemory { .. }) => {
                    // Evict somebody else while possible; self last.
                    let others: Vec<usize> =
                        self.running.iter().copied().filter(|&i| i != idx).collect();
                    let victim = choose_victim(&self.requests, &others).unwrap_or(idx);
                    self.evict(victim, now, gpu);
                    if victim == idx {
                        return false;
                    }
                }
                Err(e) => {
                    self.fatal.get_or_insert(e);
                    return false;
                }
            }
        }
    }

    /// Frees a request's KV allocation, if it holds one.
    fn free_kv(&mut self, idx: usize, gpu: &mut GpuEngine) {
        if let Some(id) = self.requests[idx].kv.take() {
            match gpu.free_immediate(id) {
                Ok(freed) => self.kv_used -= freed,
                Err(e) => {
                    self.fatal.get_or_insert(e);
                }
            }
        }
    }

    /// Frees a victim's KV and re-queues (or drops) it. Eviction restarts
    /// the request from its prompt (recompute-on-restore, Orca-style).
    fn evict(&mut self, victim: usize, now: SimTime, gpu: &mut GpuEngine) {
        self.free_kv(victim, gpu);
        self.running.retain(|&i| i != victim);
        self.report.evictions += 1;
        let r = &mut self.requests[victim];
        r.kv_tokens = 0;
        r.generated = 0;
        r.evictions += 1;
        if r.evictions > MAX_EVICTIONS {
            r.state = ReqState::Dropped;
            self.report.dropped_evicted += 1;
        } else {
            r.state = ReqState::Queued;
            r.queued_at = now;
            self.queue.push_front(victim);
        }
    }

    /// Completes a request: frees its KV and records request-level stats.
    fn complete(&mut self, idx: usize, now: SimTime, warm: bool, gpu: &mut GpuEngine) {
        self.free_kv(idx, gpu);
        self.running.retain(|&i| i != idx);
        let r = &mut self.requests[idx];
        r.state = ReqState::Done;
        self.report.completed += 1;
        self.report.leaves += 1;
        if !self.running.is_empty() {
            self.report.leaves_mid += 1;
        }
        if warm {
            self.report.e2e.record(now - r.spec.arrival);
        }
    }

    /// Starts the next step: the oldest pending prefill, else a decode step
    /// over the whole running batch. Returns its op trace, or `None` when
    /// there is nothing to run.
    fn start_step(&mut self, now: SimTime) -> Option<Arc<Workload>> {
        self.members.clear();
        if let Some(req) = self.prefill_q.pop_front() {
            self.step = Some(Step::Prefill { req });
            self.report.prefill_steps += 1;
            return Some(Arc::new(llm_prefill(self.requests[req].spec.prompt_tokens)));
        }
        if self.running.is_empty() {
            return None;
        }
        let batch = self.running.len() as u32;
        let mut total_ctx = 0u64;
        for &i in &self.running {
            let r = &self.requests[i];
            total_ctx += u64::from(r.kv_tokens);
            self.members.push((i, r.generated));
        }
        let key = (batch, ctx_bucket((total_ctx / u64::from(batch)) as u32));
        let shape = self.decode_shapes.get_or_build(key);
        self.step = Some(Step::Decode { started: now });
        self.report.decode_steps += 1;
        self.report.peak_batch = self.report.peak_batch.max(batch);
        self.batch_sum += u64::from(batch);
        Some(shape)
    }

    /// SLO-aware admission: sheds stale/oversized requests, then admits from
    /// the queue head while batch, deadline-risk, and KV-watermark gates all
    /// pass. Stops at the first deferral (FIFO admission order). Runs only
    /// between steps, so no prefill is in flight.
    fn admission_pass(&mut self, now: SimTime, gpu: &mut GpuEngine) {
        loop {
            let Some(&cand) = self.queue.front() else {
                return;
            };
            let spec = self.requests[cand].spec;
            let stale = now - self.requests[cand].queued_at > MAX_QUEUE_WAIT;
            if stale || spec.admit_kv_bytes() > self.report.kv_budget_bytes {
                self.queue.pop_front();
                self.requests[cand].state = ReqState::Dropped;
                *if stale {
                    &mut self.report.shed_queue
                } else {
                    &mut self.report.shed_oversized
                } += 1;
                continue;
            }
            // Batch cap counts running + admitted-not-yet-prefilled, i.e.
            // everyone who will hold a batch slot.
            let in_batch = self.running.len() + self.prefill_q.len();
            if in_batch + 1 > self.cfg.max_batch as usize {
                self.report.deferred_batch += 1;
                return;
            }
            // Deadline risk: predicted decode-step time at batch+1 with the
            // candidate's context folded into the average.
            let projected_batch = (in_batch + 1) as u32;
            let total_ctx: u64 = self
                .running
                .iter()
                .map(|&i| u64::from(self.requests[i].kv_tokens))
                .chain(
                    self.prefill_q
                        .iter()
                        .map(|&i| u64::from(self.requests[i].spec.prompt_tokens) + 1),
                )
                .sum::<u64>()
                + u64::from(spec.prompt_tokens)
                + 1;
            let avg_ctx = (total_ctx / u64::from(projected_batch)) as u32;
            let predicted = self.predictor.predict(projected_batch, avg_ctx);
            if predicted > self.cfg.slo.per_token.mul_f64(SLO_MARGIN) {
                self.report.deferred_slo += 1;
                return;
            }
            // KV headroom: projected live KV must stay under the watermark.
            let projected_kv = self.kv_used + spec.admit_kv_bytes();
            let watermark = (KV_WATERMARK * self.report.kv_budget_bytes as f64) as u64;
            if projected_kv > watermark {
                self.report.deferred_kv += 1;
                return;
            }
            let id = match gpu.alloc_immediate(kv_cache_bytes(spec.prompt_tokens)) {
                Ok(id) => id,
                // Watermark passed but the ledger is tighter: defer rather
                // than evict for a not-yet-admitted request.
                Err(GpuError::OutOfMemory { .. }) => {
                    self.report.deferred_kv += 1;
                    return;
                }
                Err(e) => {
                    self.fatal.get_or_insert(e);
                    return;
                }
            };
            self.queue.pop_front();
            let r = &mut self.requests[cand];
            r.kv = Some(id);
            r.kv_tokens = spec.prompt_tokens;
            r.state = ReqState::Prefilling;
            self.kv_used += kv_cache_bytes(spec.prompt_tokens);
            self.report.kv_peak_bytes = self.report.kv_peak_bytes.max(self.kv_used);
            self.report.admitted += 1;
            self.prefill_q.push_back(cand);
        }
    }

    /// The step-boundary oracle, run after admission and before the next
    /// step starts: the ledger's KV bytes equal the requests' summed KV (and
    /// the batcher's own counter), no running request is also queued, and
    /// every member of a just-finished decode step that was not evicted
    /// gained exactly one token.
    fn audit(&mut self, now: SimTime, gpu: &GpuEngine) {
        let Some(oracle) = self.oracle.as_mut() else {
            return;
        };
        let policy = self.cfg.policy.label();
        let held: u64 = self
            .requests
            .iter()
            .filter(|r| r.kv.is_some())
            .map(|r| kv_cache_bytes(r.kv_tokens))
            .sum();
        let ledger = gpu.memory().used() - self.static_bytes;
        if ledger != held || self.kv_used != held {
            let detail = format!(
                "ledger holds {ledger} KV bytes, requests hold {held}, batcher counts {}",
                self.kv_used
            );
            oracle.violation(now, policy, "serving-kv-ledger", detail);
        }
        let queued = |i: &usize| self.queue.contains(i) || self.prefill_q.contains(i);
        if let Some(&i) = self.running.iter().find(|i| queued(i)) {
            let detail = format!("request {i} is both queued and running");
            oracle.violation(now, policy, "serving-queued-and-running", detail);
        }
        // Evicted members restart from zero and are exempt.
        if let Some(&(i, before)) = self.members.iter().find(|&&(i, before)| {
            let r = &self.requests[i];
            matches!(r.state, ReqState::Running | ReqState::Done) && r.generated != before + 1
        }) {
            let detail = format!(
                "decode member {i} went from {before} to {} tokens in one step",
                self.requests[i].generated
            );
            oracle.violation(now, policy, "serving-one-token-per-step", detail);
        }
    }
}

impl RequestSource for Batcher<'_> {
    fn on_arrival(&mut self, _now: SimTime) {
        self.queue.push_back(self.next_arrival);
        self.next_arrival += 1;
    }

    /// One step boundary: finish the completed step, admit, audit, and
    /// start the next step.
    fn next_request(&mut self, now: SimTime, gpu: &mut GpuEngine) -> Option<Arc<Workload>> {
        if let Some(step) = self.step.take() {
            self.finish_step(step, now, gpu);
        }
        self.admission_pass(now, gpu);
        if self.fatal.is_some() {
            return None;
        }
        self.report.ledger_high_water = gpu.memory().high_water();
        self.audit(now, gpu);
        self.start_step(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_shapes_are_reused_least_recently_used_first() {
        let mut shapes = DecodeShapes::default();
        let keys = [(1, 64), (2, 64), (3, 128), (4, 64)];
        let built: Vec<_> = keys.iter().map(|&k| shapes.get_or_build(k)).collect();
        // A hit hands back the same trace and moves it to the front.
        assert!(Arc::ptr_eq(&shapes.get_or_build((1, 64)), &built[0]));
        // A fifth shape evicts the least recently used one, (2, 64).
        let fifth = shapes.get_or_build((5, 256));
        assert!(Arc::ptr_eq(&shapes.get_or_build((5, 256)), &fifth));
        for (i, &k) in keys.iter().enumerate().skip(2) {
            assert!(Arc::ptr_eq(&shapes.get_or_build(k), &built[i]), "{k:?} kept");
        }
        assert!(Arc::ptr_eq(&shapes.get_or_build((1, 64)), &built[0]));
        assert!(!Arc::ptr_eq(&shapes.get_or_build((2, 64)), &built[1]), "(2, 64) rebuilt");
        assert_eq!(shapes.0.len(), DECODE_SHAPES);
    }
}
