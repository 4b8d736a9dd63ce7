//! Fair work queue for the serve worker pool.
//!
//! Requests are enqueued per **tenant** (the `X-Vgrid-Tenant` header)
//! and drained round-robin across tenants: idle workers steal the next
//! job from the tenant at the front of the rotation, so one tenant
//! posting a burst of campaigns cannot starve another's single
//! request. Within a tenant, jobs stay FIFO.
//!
//! Fairness here is a *latency* policy only. Response bytes are a pure
//! function of each request (`grid::wire::run_request`), so no
//! scheduling decision — which worker, which order, how interleaved —
//! can show up in any response body.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use vgrid_simcore::DetMap;

struct State<T> {
    /// Per-tenant FIFO queues. Invariant: a tenant appears in
    /// `rotation` exactly when its queue is non-empty.
    queues: DetMap<String, VecDeque<T>>,
    rotation: VecDeque<String>,
    closed: bool,
}

/// Blocking multi-producer multi-consumer queue with per-tenant
/// round-robin dispatch.
pub struct FairQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        FairQueue::new()
    }
}

impl<T> FairQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        FairQueue {
            state: Mutex::new(State {
                queues: DetMap::new(),
                rotation: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a job for `tenant`. Returns `false` (dropping the job)
    /// if the queue has been closed.
    pub fn push(&self, tenant: &str, item: T) -> bool {
        let mut st = self.state.lock().expect("serve::FairQueue state poisoned");
        if st.closed {
            return false;
        }
        let newly_busy = {
            let q = st.queues.or_insert_with(tenant.to_string(), VecDeque::new);
            let was_empty = q.is_empty();
            q.push_back(item);
            was_empty
        };
        if newly_busy {
            st.rotation.push_back(tenant.to_string());
        }
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Take the next job, blocking while the queue is open and empty.
    /// `None` means the queue is closed and fully drained — the worker
    /// should exit.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("serve::FairQueue state poisoned");
        loop {
            if let Some(tenant) = st.rotation.pop_front() {
                let (item, more) = {
                    let q = st
                        .queues
                        .get_mut(&tenant)
                        .expect("rotation tenant has a queue");
                    let item = q.pop_front().expect("rotation queue is non-empty");
                    (item, !q.is_empty())
                };
                if more {
                    st.rotation.push_back(tenant);
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .expect("serve::FairQueue condvar poisoned");
        }
    }

    /// Close the queue: pending jobs still drain, new pushes are
    /// refused, and blocked workers wake to exit.
    pub fn close(&self) {
        self.state
            .lock()
            .expect("serve::FairQueue state poisoned")
            .closed = true;
        self.ready.notify_all();
    }

    /// Jobs currently queued across all tenants.
    pub fn len(&self) -> usize {
        let st = self.state.lock().expect("serve::FairQueue state poisoned");
        st.queues.values().map(|q| q.len()).sum()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_across_tenants_fifo_within() {
        let q = FairQueue::new();
        // Tenant a floods first; b and c arrive later with one job each.
        assert!(q.push("a", "a1"));
        assert!(q.push("a", "a2"));
        assert!(q.push("a", "a3"));
        assert!(q.push("b", "b1"));
        assert!(q.push("c", "c1"));
        let order: Vec<&str> = (0..5).map(|_| q.pop().expect("job")).collect();
        // a entered the rotation first, then b, then c; a re-queues at
        // the back after each pop, so b1/c1 overtake a's backlog.
        assert_eq!(order, ["a1", "b1", "c1", "a2", "a3"]);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = FairQueue::new();
        assert!(q.push("t", 1));
        q.close();
        assert!(!q.push("t", 2), "closed queue refuses new jobs");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocked_workers_wake_on_push_and_close() {
        let q = std::sync::Arc::new(FairQueue::new());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let q = q.clone();
                    s.spawn(move || q.pop())
                })
                .collect();
            assert!(q.push("t", 7));
            q.close();
            let got: Vec<Option<i32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1);
            assert_eq!(got.iter().filter(|g| g.is_none()).count(), 2);
        });
    }

    #[test]
    fn len_counts_all_tenants() {
        let q = FairQueue::new();
        assert!(q.is_empty());
        q.push("a", 1);
        q.push("b", 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
