//! Baseline policies: temporal sharing and the stream-based spatial sharers.

use orion_gpu::stream::{StreamId, StreamPriority};

use super::{split_clients, Policy, PolicyDebugState, RoutedCompletion, SchedCtx};
use crate::client::ClientPriority;

/// Pass-through spatial sharing: every client submits directly to its own
/// CUDA stream. Covers three baselines:
///
/// * **Streams** (§6.1): one multi-threaded process, all default-priority
///   streams (the GIL launch penalty is modeled by the world).
/// * **Stream-Priority** (Figure 14): same, but the high-priority client
///   gets a CUDA high-priority stream.
/// * **MPS** (§6.1): process-per-client — no GIL penalty, default priorities
///   (MPS ignores stream priorities across processes, paper ref 46).
#[derive(Debug)]
pub struct PassThrough {
    label: &'static str,
    hp_priority: bool,
    streams: Vec<Option<StreamId>>,
}

impl PassThrough {
    /// The GPU Streams baseline.
    pub fn streams() -> Self {
        PassThrough {
            label: "Streams",
            hp_priority: false,
            streams: Vec::new(),
        }
    }

    /// Streams + CUDA priority for the high-priority client.
    pub fn stream_priority() -> Self {
        PassThrough {
            label: "Stream-Priority",
            hp_priority: true,
            streams: Vec::new(),
        }
    }

    /// The MPS baseline.
    pub fn mps() -> Self {
        PassThrough {
            label: "MPS",
            hp_priority: false,
            streams: Vec::new(),
        }
    }
}

impl Policy for PassThrough {
    fn name(&self) -> &'static str {
        self.label
    }

    fn setup(&mut self, ctx: &mut SchedCtx) {
        self.streams = ctx
            .clients
            .iter()
            .map(|c| {
                let prio =
                    if self.hp_priority && c.priority() == ClientPriority::HighPriority {
                        StreamPriority::HIGH
                    } else {
                        StreamPriority::DEFAULT
                    };
                Some(ctx.gpu.create_stream(prio))
            })
            .collect();
    }

    fn schedule(&mut self, ctx: &mut SchedCtx) {
        for i in 0..ctx.clients.len() {
            let stream = self.streams[i].expect("setup created streams");
            while ctx.clients[i].peek().is_some() {
                if ctx.submit_head(i, stream).is_none() {
                    return; // device faulted: head requeued, retry next round
                }
            }
        }
    }

    // Pass-through keeps no mirror of device state, so there is nothing for
    // the oracle to cross-check: the default (all-`None`) debug state is the
    // honest answer, and only policy-independent invariants apply.
    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState::default()
    }
}

/// Temporal sharing (§4): the GPU executes one request / training iteration
/// at a time; an arriving high-priority request still waits for the ongoing
/// best-effort iteration (head-of-line blocking), which is the behaviour
/// the paper's Figure 6/7 temporal bars show.
#[derive(Debug)]
pub struct Temporal {
    streams: Vec<Option<StreamId>>,
    /// High-priority client indices (fixed at setup).
    hp_clients: Vec<usize>,
    /// Best-effort client indices (fixed at setup).
    be_clients: Vec<usize>,
    /// The client whose request currently owns the GPU, with its request id.
    active: Option<(usize, u64)>,
}

impl Temporal {
    /// Creates the temporal-sharing policy.
    pub fn new() -> Self {
        Temporal {
            streams: Vec::new(),
            hp_clients: Vec::new(),
            be_clients: Vec::new(),
            active: None,
        }
    }

    /// Picks the next request owner: high-priority clients first, then
    /// best-effort, in index order. If a high-priority client has a request
    /// in flight whose ops have not reached the queue yet (its launch thread
    /// is mid-push), the pick is deferred so the HP request is not overtaken
    /// by a best-effort iteration at the same instant.
    fn pick_next(&self, ctx: &SchedCtx) -> Option<(usize, u64)> {
        for &i in &self.hp_clients {
            if let Some(op) = ctx.clients[i].peek() {
                return Some((i, op.request_id));
            }
            if ctx.clients[i].request_in_flight() {
                return None; // HP ops are imminent; hold the device.
            }
        }
        for &i in &self.be_clients {
            if let Some(op) = ctx.clients[i].peek() {
                return Some((i, op.request_id));
            }
        }
        None
    }
}

impl Default for Temporal {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for Temporal {
    fn name(&self) -> &'static str {
        "Temporal"
    }

    fn setup(&mut self, ctx: &mut SchedCtx) {
        self.streams = ctx
            .clients
            .iter()
            .map(|_| Some(ctx.gpu.create_stream(StreamPriority::DEFAULT)))
            .collect();
        (self.hp_clients, self.be_clients) = split_clients(ctx.clients);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx) {
        let (owner, request) = match self.active {
            Some(a) => a,
            None => match self.pick_next(ctx) {
                Some(a) => {
                    self.active = Some(a);
                    a
                }
                None => return,
            },
        };
        // Submit the owner's ops as they stream into its queue; ops of a
        // *later* request stay queued until this one completes. Ownership
        // transfers when the final op's completion arrives
        // (see on_completions).
        let stream = self.streams[owner].expect("setup created streams");
        while let Some(head) = ctx.clients[owner].peek() {
            if head.request_id != request {
                break;
            }
            if ctx.submit_head(owner, stream).is_none() {
                return; // device faulted: head requeued, retry next round
            }
        }
    }

    fn on_completions(&mut self, completions: &[RoutedCompletion], _ctx: &mut SchedCtx) {
        for c in completions {
            if c.last_of_request {
                if let Some((owner, request)) = self.active {
                    if owner == c.client && request == c.request_id {
                        self.active = None;
                    }
                }
            }
        }
    }

    fn on_request_shed(&mut self, client: usize, request_id: u64) {
        // A shed request's final op will never complete, so ownership must
        // be released here or the device deadlocks on the dead owner.
        if self.active == Some((client, request_id)) {
            self.active = None;
        }
    }

    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState {
            exclusive_owner: Some(self.active),
            ..PolicyDebugState::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_label_correctly() {
        assert_eq!(PassThrough::streams().name(), "Streams");
        assert_eq!(PassThrough::stream_priority().name(), "Stream-Priority");
        assert_eq!(PassThrough::mps().name(), "MPS");
        assert_eq!(Temporal::new().name(), "Temporal");
    }
}
