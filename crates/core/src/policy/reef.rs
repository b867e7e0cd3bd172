//! REEF-N: the paper's re-implementation of REEF's scheduling policy for
//! NVIDIA GPUs (§6.1).
//!
//! REEF (OSDI '22) preempts best-effort kernels on AMD GPUs; on NVIDIA
//! hardware the authors proposed REEF-N, where high-priority kernels bypass
//! queued best-effort kernels *before* device submission, and best-effort
//! kernels are selected by size and expected latency ("dynamic kernel
//! padding"): a best-effort kernel may launch while a high-priority kernel
//! runs only if it is expected to finish within the high-priority kernel's
//! remaining time and fits in the SMs the high-priority kernel leaves free.
//! The software queue bounds outstanding best-effort work at 12 kernels
//! (per discussion with the REEF authors). Crucially, REEF-N has **no
//! compute-vs-memory interference awareness and no cumulative-duration
//! throttle** — the two gaps Orion's evaluation exposes.

use std::collections::HashMap;

use orion_desim::time::SimTime;
use orion_gpu::engine::OpId;
use orion_gpu::stream::{StreamId, StreamPriority};

use super::{split_clients, Policy, PolicyDebugState, RoutedCompletion, SchedCtx};
use crate::client::ClientPriority;

/// The REEF-N policy.
#[derive(Debug)]
pub struct ReefN {
    queue_depth: usize,
    hp_stream: Option<StreamId>,
    be_streams: Vec<Option<StreamId>>,
    /// High-priority client indices (fixed at setup).
    hp_clients: Vec<usize>,
    /// Best-effort client indices (fixed at setup).
    be_clients: Vec<usize>,
    /// Outstanding high-priority kernels: op -> (expected end, sm_needed).
    hp_outstanding: HashMap<OpId, (SimTime, u32)>,
    /// Outstanding best-effort ops on the device.
    be_outstanding: usize,
    rr: usize,
}

impl ReefN {
    /// Creates REEF-N with the given software queue depth.
    pub fn new(queue_depth: usize) -> Self {
        ReefN {
            queue_depth,
            hp_stream: None,
            be_streams: Vec::new(),
            hp_clients: Vec::new(),
            be_clients: Vec::new(),
            hp_outstanding: HashMap::new(),
            be_outstanding: 0,
            rr: 0,
        }
    }

    /// Remaining expected time of the longest outstanding HP kernel and the
    /// SMs left free by all outstanding HP kernels.
    fn hp_gap(&self, now: SimTime, num_sms: u32) -> Option<(SimTime, u32)> {
        if self.hp_outstanding.is_empty() {
            return None;
        }
        let remaining = self
            .hp_outstanding
            .values()
            .map(|(end, _)| end.saturating_sub(now))
            .max()
            .unwrap_or(SimTime::ZERO);
        let used: u32 = self.hp_outstanding.values().map(|(_, sm)| *sm).sum();
        Some((remaining, num_sms.saturating_sub(used)))
    }
}

impl Policy for ReefN {
    fn name(&self) -> &'static str {
        "REEF"
    }

    fn setup(&mut self, ctx: &mut SchedCtx) {
        self.be_streams = vec![None; ctx.clients.len()];
        (self.hp_clients, self.be_clients) = split_clients(ctx.clients);
        for (i, c) in ctx.clients.iter().enumerate() {
            match c.priority() {
                ClientPriority::HighPriority => {
                    self.hp_stream = Some(ctx.gpu.create_stream(StreamPriority::HIGH));
                }
                ClientPriority::BestEffort => {
                    self.be_streams[i] = Some(ctx.gpu.create_stream(StreamPriority::DEFAULT));
                }
            }
        }
    }

    fn schedule(&mut self, ctx: &mut SchedCtx) {
        // High-priority bypass: HP ops go straight to the device.
        if let Some(hp_stream) = self.hp_stream {
            for i in 0..self.hp_clients.len() {
                let hc = self.hp_clients[i];
                while ctx.clients[hc].peek().is_some() {
                    let Some(routed) = ctx.submit_head(hc, hp_stream) else {
                        return; // device faulted: head requeued, retry next round
                    };
                    if routed.is_kernel {
                        self.hp_outstanding.insert(
                            routed.op,
                            (ctx.now + routed.expected_dur, routed.sm_needed),
                        );
                    }
                }
            }
        }

        if self.be_clients.is_empty() {
            return;
        }
        let num_sms = ctx.gpu.spec().num_sms;
        let n = self.be_clients.len();
        let mut idle = 0;
        while idle < n {
            if self.be_outstanding >= self.queue_depth {
                break;
            }
            let bc = self.be_clients[self.rr % n];
            self.rr = (self.rr + 1) % n;
            let Some(stream) = self.be_streams[bc] else {
                idle += 1;
                continue;
            };
            let Some(head) = ctx.clients[bc].peek() else {
                idle += 1;
                continue;
            };
            if head.is_kernel {
                // Kernel selection rule: fill only gaps the HP job leaves.
                let ok = match self.hp_gap(ctx.now, num_sms) {
                    None => true,
                    Some((remaining, free_sms)) => {
                        head.expected_dur <= remaining && head.sm_needed <= free_sms
                    }
                };
                if !ok {
                    idle += 1;
                    continue;
                }
            }
            if ctx.submit_head(bc, stream).is_none() {
                return; // device faulted: head requeued, retry next round
            }
            self.be_outstanding += 1;
            idle = 0;
        }
    }

    fn on_completions(&mut self, completions: &[RoutedCompletion], ctx: &mut SchedCtx) {
        for c in completions {
            if self.hp_outstanding.remove(&c.op).is_none()
                && ctx.clients[c.client].priority() == ClientPriority::BestEffort
                && self.be_outstanding > 0
            {
                self.be_outstanding -= 1;
            }
        }
    }

    fn debug_state(&self) -> PolicyDebugState {
        PolicyDebugState {
            hp_stream: self.hp_stream,
            hp_kernels: Some(self.hp_outstanding.keys().copied().collect()),
            be_inflight: Some(self.be_outstanding),
            ..PolicyDebugState::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hp_gap_accounting() {
        let mut r = ReefN::new(12);
        assert!(r.hp_gap(SimTime::ZERO, 80).is_none());
        r.hp_outstanding
            .insert(OpId(1), (SimTime::from_micros(100), 30));
        r.hp_outstanding
            .insert(OpId(2), (SimTime::from_micros(50), 20));
        let (remaining, free) = r.hp_gap(SimTime::from_micros(20), 80).unwrap();
        assert_eq!(remaining, SimTime::from_micros(80));
        assert_eq!(free, 30);
        // Past the expected end, remaining clamps to zero.
        let (remaining, _) = r.hp_gap(SimTime::from_micros(500), 80).unwrap();
        assert_eq!(remaining, SimTime::ZERO);
    }
}
