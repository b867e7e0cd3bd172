//! Tick-Tock training collocation (Wavelet/Zico style, paper refs 94 and 67; §6.1).
//!
//! Two training jobs run with their forward and backward passes offset: in
//! the *tick* window client A runs its forward pass while client B runs its
//! backward pass (and optimizer update); in the *tock* window they swap.
//! A barrier separates windows — both jobs must finish their window's phase
//! before either proceeds — which minimizes peak activation memory but makes
//! the faster job wait for the slower one (the throughput loss the paper's
//! Figure 10 shows).

use std::collections::HashSet;

use orion_gpu::engine::OpId;
use orion_gpu::stream::{StreamId, StreamPriority};
use orion_workloads::model::Phase;

use super::{Policy, PolicyDebugState, RoutedCompletion, SchedCtx};

/// Window parity: which client runs its forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Window {
    /// Even clients forward, odd clients backward+update.
    Tick,
    /// Odd clients forward, even clients backward+update.
    Tock,
}

/// The Tick-Tock policy.
#[derive(Debug)]
pub struct TickTock {
    streams: Vec<Option<StreamId>>,
    window: Window,
    outstanding: Vec<HashSet<OpId>>,
}

impl TickTock {
    /// Creates the policy (expects training clients in a closed loop).
    pub fn new() -> Self {
        TickTock {
            streams: Vec::new(),
            window: Window::Tick,
            outstanding: Vec::new(),
        }
    }

    /// Phases client `i` may run in the current window.
    fn allowed(&self, client: usize) -> [Phase; 2] {
        let fwd_side = match self.window {
            Window::Tick => 0,
            Window::Tock => 1,
        };
        if client % 2 == fwd_side {
            [Phase::Forward, Phase::Forward]
        } else {
            [Phase::Backward, Phase::Update]
        }
    }

    /// True when every client has drained its window work: no outstanding
    /// ops and its queue head (if any) belongs to the next window.
    fn window_done(&self, ctx: &SchedCtx) -> bool {
        for (i, c) in ctx.clients.iter().enumerate() {
            if !self.outstanding[i].is_empty() {
                return false;
            }
            let allowed = self.allowed(i);
            if let Some(head) = c.peek() {
                if head.is_kernel && allowed.contains(&head.phase) {
                    return false;
                }
            } else if c.request_in_flight() {
                // The client is still pushing ops of the current window.
                return false;
            }
        }
        true
    }
}

impl Default for TickTock {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for TickTock {
    fn name(&self) -> &'static str {
        "Tick-Tock"
    }

    fn setup(&mut self, ctx: &mut SchedCtx) {
        self.streams = ctx
            .clients
            .iter()
            .map(|_| Some(ctx.gpu.create_stream(StreamPriority::DEFAULT)))
            .collect();
        self.outstanding = vec![HashSet::new(); ctx.clients.len()];
    }

    fn schedule(&mut self, ctx: &mut SchedCtx) {
        loop {
            let mut progressed = false;
            for i in 0..ctx.clients.len() {
                let stream = self.streams[i].expect("setup created streams");
                let allowed = self.allowed(i);
                while let Some(head) = ctx.clients[i].peek() {
                    // Memory ops pass through; kernels obey the window phase.
                    if head.is_kernel && !allowed.contains(&head.phase) {
                        break;
                    }
                    let Some(routed) = ctx.submit_head(i, stream) else {
                        return; // device faulted: head requeued, retry next round
                    };
                    self.outstanding[i].insert(routed.op);
                    progressed = true;
                }
            }
            if self.window_done(ctx) && ctx.clients.iter().any(|c| c.peek().is_some()) {
                // Barrier passed: swap windows and continue draining.
                self.window = match self.window {
                    Window::Tick => Window::Tock,
                    Window::Tock => Window::Tick,
                };
                progressed = true;
            }
            if !progressed {
                return;
            }
        }
    }

    fn on_completions(&mut self, completions: &[RoutedCompletion], _ctx: &mut SchedCtx) {
        for c in completions {
            if let Some(set) = self.outstanding.get_mut(c.client) {
                set.remove(&c.op);
            }
        }
    }

    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState {
            per_client: Some(
                self.outstanding
                    .iter()
                    .map(|set| set.iter().copied().collect())
                    .collect(),
            ),
            ..PolicyDebugState::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_phases_alternate() {
        let mut t = TickTock::new();
        assert_eq!(t.allowed(0), [Phase::Forward, Phase::Forward]);
        assert_eq!(t.allowed(1), [Phase::Backward, Phase::Update]);
        t.window = Window::Tock;
        assert_eq!(t.allowed(0), [Phase::Backward, Phase::Update]);
        assert_eq!(t.allowed(1), [Phase::Forward, Phase::Forward]);
    }
}
