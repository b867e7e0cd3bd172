//! Step-time prediction and eviction victim selection for admission.

use std::collections::HashMap;

use orion_desim::time::SimTime;
use orion_workloads::models::llm::llm_batched_decode_step;

use super::request::Request;

/// Context lengths are quantized to pages of this many tokens for step-time
/// prediction and decode-kernel generation (paged-attention cost quanta);
/// keeps the prediction cache small and kernel descriptors reusable.
pub(super) const CTX_BUCKET_TOKENS: u32 = 64;

/// Rounds a context length up to its page boundary.
pub(super) fn ctx_bucket(ctx: u32) -> u32 {
    ctx.max(1).div_ceil(CTX_BUCKET_TOKENS) * CTX_BUCKET_TOKENS
}

/// Memoized solo decode-step-time predictor, keyed on (batch, context
/// bucket). The prediction is the generated workload's own solo kernel time,
/// so the deadline-risk gate and the submitted kernels can never disagree.
#[derive(Debug, Default)]
pub(super) struct StepTimePredictor {
    cache: HashMap<(u32, u32), SimTime>,
}

impl StepTimePredictor {
    pub(super) fn predict(&mut self, batch: u32, ctx: u32) -> SimTime {
        let key = (batch, ctx_bucket(ctx));
        *self
            .cache
            .entry(key)
            .or_insert_with(|| llm_batched_decode_step(key.0, key.1).solo_kernel_time())
    }
}

/// Picks the eviction victim among `members` (indices into `requests`):
/// batch-class before interactive, then youngest arrival, then highest
/// index — so interactive requests with the most sunk work survive longest
/// and the choice is deterministic. Returns `None` when `members` is empty.
pub(super) fn choose_victim(requests: &[Request], members: &[usize]) -> Option<usize> {
    members
        .iter()
        .copied()
        .max_by_key(|&i| {
            let r = &requests[i];
            (!r.spec.interactive, r.spec.arrival, i)
        })
}

#[cfg(test)]
mod tests {
    use super::super::request::RequestSpec;
    use super::*;

    fn req(arrival_ms: u64, interactive: bool) -> Request {
        Request::new(RequestSpec {
            arrival: SimTime::from_millis(arrival_ms),
            prompt_tokens: 10,
            output_tokens: 5,
            interactive,
        })
    }

    #[test]
    fn victim_prefers_batch_class_then_youngest() {
        let requests = vec![req(1, true), req(2, false), req(3, false), req(4, true)];
        // Batch-class requests (1, 2) are victims before interactive ones;
        // among them the youngest (index 2, arrived at 3 ms) goes first.
        assert_eq!(choose_victim(&requests, &[0, 1, 2, 3]), Some(2));
        assert_eq!(choose_victim(&requests, &[0, 1, 3]), Some(1));
        // Only interactive left: youngest goes.
        assert_eq!(choose_victim(&requests, &[0, 3]), Some(3));
        assert_eq!(choose_victim(&requests, &[]), None);
    }

    #[test]
    fn predictor_is_monotone_in_batch_and_context() {
        let mut p = StepTimePredictor::default();
        let base = p.predict(1, 256);
        assert!(p.predict(4, 256) > base);
        assert!(p.predict(4, 1024) > p.predict(4, 256));
        // Memoized: the same key returns the identical value.
        assert_eq!(p.predict(4, 256), p.predict(4, 250), "same bucket");
    }

    #[test]
    fn ctx_bucket_rounds_up_to_pages() {
        assert_eq!(ctx_bucket(1), 64);
        assert_eq!(ctx_bucket(64), 64);
        assert_eq!(ctx_bucket(65), 128);
        assert_eq!(ctx_bucket(0), 64);
    }
}
