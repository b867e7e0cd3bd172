//! Request traces and per-request runtime state.

use orion_desim::rng::DetRng;
use orion_desim::time::SimTime;
use orion_gpu::memory::AllocId;
use orion_workloads::arrivals::ArrivalProcess;
use orion_workloads::models::llm::kv_cache_bytes;

use super::ServingConfig;

/// Immutable shape of one serving request, drawn deterministically from the
/// run seed before the simulation starts.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_tokens: u32,
    /// Output length in tokens (includes the prefill's first token).
    pub output_tokens: u32,
    /// Interactive-class requests are evicted last under memory pressure.
    pub interactive: bool,
}

impl RequestSpec {
    /// KV bytes this request holds after `generated` tokens.
    pub fn kv_bytes_at(&self, generated: u32) -> u64 {
        kv_cache_bytes(self.prompt_tokens + generated)
    }

    /// KV bytes needed to admit this request (prompt + first token).
    pub fn admit_kv_bytes(&self) -> u64 {
        kv_cache_bytes(self.prompt_tokens + 1)
    }
}

/// Fraction of requests in the interactive (higher-priority) class; the rest
/// are batch-class and are evicted first under pressure.
const INTERACTIVE_FRACTION: f64 = 0.7;

/// Draws the request trace: Poisson arrivals, uniform prompt/output lengths,
/// Bernoulli priority class. Streams are domain-separated by fork index so
/// arrival times and request shapes are independent draws.
pub fn generate_requests(cfg: &ServingConfig) -> Vec<RequestSpec> {
    let mut rng = DetRng::new(cfg.seed);
    let arrivals =
        ArrivalProcess::Poisson { rps: cfg.rps }.schedule(cfg.horizon, &mut rng.fork(1));
    let mut shape = rng.fork(2);
    let (plo, phi) = cfg.prompt_tokens;
    let (olo, ohi) = cfg.output_tokens;
    arrivals
        .into_iter()
        .map(|arrival| {
            let prompt_tokens = plo + shape.uniform_u64(u64::from(phi - plo) + 1) as u32;
            let output_tokens = olo + shape.uniform_u64(u64::from(ohi - olo) + 1) as u32;
            let interactive = shape.next_f64() < INTERACTIVE_FRACTION;
            RequestSpec {
                arrival,
                prompt_tokens,
                output_tokens,
                interactive,
            }
        })
        .collect()
}

/// Lifecycle of a request inside the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqState {
    /// Waiting in the admission queue.
    Queued,
    /// Admitted: KV allocated, prefill pending or in flight.
    Prefilling,
    /// Member of the running decode batch.
    Running,
    /// Produced its full output.
    Done,
    /// Shed (queue-stale, oversized) or dropped after repeated evictions.
    Dropped,
}

/// Mutable runtime state of one request.
#[derive(Debug)]
pub struct Request {
    /// Immutable shape.
    pub spec: RequestSpec,
    /// Lifecycle state.
    pub state: ReqState,
    /// Live KV allocation while admitted.
    pub kv: Option<AllocId>,
    /// Tokens of context currently cached (prompt + generated).
    pub kv_tokens: u32,
    /// Tokens generated so far.
    pub generated: u32,
    /// Times this request lost its KV cache to eviction.
    pub evictions: u32,
    /// Last (re-)enqueue time, for queue-wait shedding.
    pub queued_at: SimTime,
    /// Timestamp of the most recent token (for inter-token gaps).
    pub last_token_at: SimTime,
}

impl Request {
    /// Fresh queued state for an arriving (or re-queued) request.
    pub fn new(spec: RequestSpec) -> Self {
        Request {
            spec,
            state: ReqState::Queued,
            kv: None,
            kv_tokens: 0,
            generated: 0,
            evictions: 0,
            queued_at: spec.arrival,
            last_token_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_in_range() {
        let cfg = ServingConfig::quick_test();
        let a = generate_requests(&cfg);
        let b = generate_requests(&cfg);
        assert!(!a.is_empty(), "no arrivals within the horizon");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.prompt_tokens, y.prompt_tokens);
            assert_eq!(x.output_tokens, y.output_tokens);
            assert_eq!(x.interactive, y.interactive);
        }
        for r in &a {
            assert!(r.arrival < cfg.horizon);
            assert!((cfg.prompt_tokens.0..=cfg.prompt_tokens.1).contains(&r.prompt_tokens));
            assert!((cfg.output_tokens.0..=cfg.output_tokens.1).contains(&r.output_tokens));
        }
    }

    #[test]
    fn kv_sizing_tracks_context() {
        let spec = RequestSpec {
            arrival: SimTime::ZERO,
            prompt_tokens: 100,
            output_tokens: 10,
            interactive: true,
        };
        assert_eq!(spec.admit_kv_bytes(), kv_cache_bytes(101));
        assert_eq!(spec.kv_bytes_at(10), kv_cache_bytes(110));
    }
}
