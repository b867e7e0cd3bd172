//! Multi-threaded interception front-end (paper §5.3, §6.5).
//!
//! In the paper's prototype, client applications and the Orion scheduler run
//! as threads of one process: clients call CUDA-wrapper functions that push
//! (kernel id, arguments) records onto per-client software queues, and the
//! scheduler thread polls the queues. This module reproduces that front-end
//! with real OS threads and lock-free queues so the interception overhead of
//! §6.5 ("less than 1%") can be *measured*, not simulated. The GPU behind it
//! is a sink — only the client-visible launch path is under test.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// An MPMC queue of launch records.
///
/// A mutex-guarded ring buffer: pushes are a lock + `VecDeque::push_back`,
/// which stays well under the §6.5 sub-microsecond budget on an uncontended
/// per-client queue (each client owns its queue; only the scheduler thread
/// competes for the lock).
///
/// Lock poisoning is *recovered*, not propagated: a client thread that
/// panics while holding the lock leaves a structurally intact `VecDeque`
/// (push_back/pop_front never leave it half-mutated), so the scheduler
/// thread keeps draining instead of cascading the panic through every
/// client of the process.
#[derive(Debug, Default)]
struct LaunchQueue {
    inner: Mutex<VecDeque<LaunchRecord>>,
}

impl LaunchQueue {
    fn push(&self, record: LaunchRecord) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(record);
    }

    fn pop(&self) -> Option<LaunchRecord> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    /// Test hook: poisons the queue lock the way a client thread panicking
    /// mid-push would.
    #[cfg(test)]
    fn poison(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("client thread dies while holding the queue lock");
        }));
    }
}

/// A launch record as the wrappers capture it: kernel id + opaque args.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Kernel identifier (profile-table key).
    pub kernel_id: u32,
    /// Client that issued the launch.
    pub client: u32,
    /// Monotonic sequence number within the client.
    pub seq: u64,
}

/// The shared state between client threads and the scheduler thread.
#[derive(Debug)]
pub struct InterceptRuntime {
    queues: Vec<Arc<LaunchQueue>>,
    dispatched: Arc<AtomicU64>,
    idle_parks: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
}

impl InterceptRuntime {
    /// Creates a runtime with one software queue per client.
    pub fn new(clients: usize) -> Self {
        InterceptRuntime {
            queues: (0..clients).map(|_| Arc::new(LaunchQueue::default())).collect(),
            dispatched: Arc::new(AtomicU64::new(0)),
            idle_parks: Arc::new(AtomicU64::new(0)),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The wrapper-side call: intercept one kernel launch.
    ///
    /// This is the §6.5 hot path — one queue push.
    pub fn intercept(&self, record: LaunchRecord) {
        self.queues[record.client as usize].push(record);
    }

    /// Number of launches the scheduler has drained.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Number of times the idle scheduler thread has parked (slept). A
    /// growing value with a constant [`InterceptRuntime::dispatched`] means
    /// the runtime is quiescent instead of burning a core.
    pub fn idle_parks(&self) -> u64 {
        self.idle_parks.load(Ordering::Relaxed)
    }

    /// Starts the scheduler thread: a round-robin poller draining all client
    /// queues (the `run_scheduler` loop of Listing 1, minus GPU submission).
    /// Returns a guard that stops the thread on drop.
    ///
    /// An idle scheduler backs off in three stages instead of busy-waiting
    /// forever: a bounded spin (lowest wake-up latency while a launch is
    /// probably imminent), then cooperative `yield_now`, then short
    /// `park_timeout` naps. The 50 us nap bounds the added dispatch latency
    /// for a launch arriving while the scheduler sleeps, and keeps an idle
    /// runtime at ~0% CPU without any wake-up signalling on the §6.5
    /// interception hot path.
    pub fn start_scheduler(&self) -> SchedulerGuard {
        const SPIN_POLLS: u32 = 64;
        const YIELD_POLLS: u32 = 192;
        const PARK_NAP: std::time::Duration = std::time::Duration::from_micros(50);

        let queues: Vec<Arc<LaunchQueue>> = self.queues.clone();
        let dispatched = Arc::clone(&self.dispatched);
        let idle_parks = Arc::clone(&self.idle_parks);
        let stop = Arc::clone(&self.stop);
        let handle = thread::spawn(move || {
            let mut empty_polls: u32 = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut drained = false;
                for q in &queues {
                    if q.pop().is_some() {
                        dispatched.fetch_add(1, Ordering::Relaxed);
                        drained = true;
                    }
                }
                if drained {
                    empty_polls = 0;
                } else {
                    empty_polls = empty_polls.saturating_add(1);
                    if empty_polls < SPIN_POLLS {
                        std::hint::spin_loop();
                    } else if empty_polls < YIELD_POLLS {
                        thread::yield_now();
                    } else {
                        idle_parks.fetch_add(1, Ordering::Relaxed);
                        thread::park_timeout(PARK_NAP);
                    }
                }
            }
            // Final drain so no launch is lost at shutdown.
            for q in &queues {
                while q.pop().is_some() {
                    dispatched.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        SchedulerGuard {
            stop: Arc::clone(&self.stop),
            handle: Some(handle),
        }
    }
}

/// Stops the scheduler thread when dropped.
#[derive(Debug)]
pub struct SchedulerGuard {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl SchedulerGuard {
    /// Stops and joins the scheduler thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SchedulerGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Measures the mean per-launch interception cost in nanoseconds: `n`
/// launches pushed from this thread while the scheduler drains.
pub fn measure_intercept_overhead_ns(n: u64) -> f64 {
    let rt = InterceptRuntime::new(1);
    let guard = rt.start_scheduler();
    let start = std::time::Instant::now();
    for seq in 0..n {
        rt.intercept(LaunchRecord {
            kernel_id: (seq % 101) as u32,
            client: 0,
            seq,
        });
    }
    let elapsed = start.elapsed();
    guard.stop();
    elapsed.as_nanos() as f64 / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_launches_are_dispatched() {
        let rt = InterceptRuntime::new(3);
        let guard = rt.start_scheduler();
        let total = 30_000u64;
        for seq in 0..total {
            rt.intercept(LaunchRecord {
                kernel_id: seq as u32,
                client: (seq % 3) as u32,
                seq,
            });
        }
        guard.stop();
        assert_eq!(rt.dispatched(), total);
    }

    #[test]
    fn concurrent_clients_do_not_lose_records() {
        let rt = Arc::new(InterceptRuntime::new(4));
        let guard = rt.start_scheduler();
        let mut joins = Vec::new();
        for client in 0..4u32 {
            let rt = Arc::clone(&rt);
            joins.push(thread::spawn(move || {
                for seq in 0..10_000u64 {
                    rt.intercept(LaunchRecord {
                        kernel_id: seq as u32,
                        client,
                        seq,
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        guard.stop();
        assert_eq!(rt.dispatched(), 40_000);
    }

    #[test]
    fn idle_runtime_parks_instead_of_spinning() {
        let rt = InterceptRuntime::new(2);
        let guard = rt.start_scheduler();
        // With nothing to drain the scheduler must fall through its backoff
        // ladder into parking within a few milliseconds.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rt.idle_parks() == 0 && std::time::Instant::now() < deadline {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(rt.idle_parks() > 0, "idle scheduler never parked");
        assert_eq!(rt.dispatched(), 0);
        // A parked scheduler still drains new launches promptly.
        for seq in 0..100u64 {
            rt.intercept(LaunchRecord {
                kernel_id: seq as u32,
                client: (seq % 2) as u32,
                seq,
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rt.dispatched() < 100 && std::time::Instant::now() < deadline {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(rt.dispatched(), 100, "parked scheduler failed to resume");
        guard.stop();
    }

    #[test]
    fn poisoned_queue_keeps_working() {
        let q = LaunchQueue::default();
        q.push(LaunchRecord {
            kernel_id: 1,
            client: 0,
            seq: 0,
        });
        q.poison();
        assert!(q.inner.is_poisoned(), "fixture must actually poison");
        // Push and pop recover the poisoned lock instead of panicking, and
        // the record enqueued before the poison is still there.
        q.push(LaunchRecord {
            kernel_id: 2,
            client: 0,
            seq: 1,
        });
        assert_eq!(q.pop().map(|r| r.kernel_id), Some(1));
        assert_eq!(q.pop().map(|r| r.kernel_id), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduler_survives_panicking_client() {
        let rt = Arc::new(InterceptRuntime::new(2));
        let guard = rt.start_scheduler();
        // A healthy client launches concurrently with a client that dies
        // mid-launch, poisoning its queue lock with records still inside.
        let dying = Arc::clone(&rt);
        let dead = thread::spawn(move || {
            for seq in 0..500u64 {
                dying.intercept(LaunchRecord {
                    kernel_id: seq as u32,
                    client: 1,
                    seq,
                });
            }
            dying.queues[1].poison();
        });
        for seq in 0..1_000u64 {
            rt.intercept(LaunchRecord {
                kernel_id: seq as u32,
                client: 0,
                seq,
            });
        }
        dead.join().unwrap();
        guard.stop();
        // Clean drain: every record from both clients dispatched, nothing
        // lost to the poisoned lock, scheduler thread joined without panic.
        assert_eq!(rt.dispatched(), 1_500);
    }

    #[test]
    fn overhead_is_sub_microsecond() {
        // The paper reports < 1% overhead on ~10 us kernels; our queue push
        // must be far below that (sub-microsecond per launch).
        let ns = measure_intercept_overhead_ns(100_000);
        assert!(ns < 1_000.0, "per-launch cost {ns} ns");
    }
}
