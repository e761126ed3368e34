//! The bounded admission queue between reader threads and the worker
//! pool.
//!
//! Readers [`push`](Admission::push) parsed explain requests; a full
//! queue rejects at admission time (the caller answers with a 429-style
//! frame) instead of queueing unbounded work. Every worker blocks in
//! [`pop`](Admission::pop) and takes **one** request the moment it is
//! there — no flush timer, no batch to fill — so the queue is work-
//! conserving: a request waits only while every worker is busy.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a [`Admission::push`] was refused; the rejected item rides along
/// so the caller can answer it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — answer 429 and let the client retry.
    Full,
    /// The queue is closed for shutdown — answer 503.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: many readers push, many workers pop.
pub struct Admission<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    /// Mirror of `items.len()`, written under the lock, so depth gauges
    /// never contend with the workers.
    len: AtomicUsize,
}

impl<T> Admission<T> {
    /// An empty queue holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Admission<T> {
        Admission {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            len: AtomicUsize::new(0),
        }
    }

    /// Admits one request, or hands it back with the rejection reason.
    pub fn push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.items.push_back(item);
        self.len.store(inner.items.len(), Ordering::Relaxed);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a request is queued and takes it. Returns `None` once
    /// the queue is closed *and* drained — a worker's exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.len.store(inner.items.len(), Ordering::Relaxed);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap();
        }
    }

    /// Puts already-admitted requests back at the head, in order, past
    /// the capacity bound and a closed queue alike: they hold their
    /// admission, so they must still be served. The caller must be a
    /// worker that goes on popping — after a close it may be the only
    /// one left to serve them.
    pub fn requeue(&self, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        for item in items.into_iter().rev() {
            inner.items.push_front(item);
        }
        self.len.store(inner.items.len(), Ordering::Relaxed);
        drop(inner);
        self.ready.notify_all();
    }

    /// [`pop`](Admission::pop) under the name and shape `benchmark/`'s
    /// `serve.queue_push_pop_ns` probe calls, which this repo may not
    /// edit: one request, no waiting for more, both arguments ignored.
    /// Not on the serve path.
    #[doc(hidden)]
    pub fn pop_batch(&self, _max_batch: usize, _max_delay: Duration) -> Option<Vec<T>> {
        self.pop().map(|item| vec![item])
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and `pop` returns `None` once the backlog drains.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// Requests currently waiting.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is empty right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn rejects_when_full_and_hands_the_item_back() {
        let q = Admission::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let (item, err) = q.push(3).unwrap_err();
        assert_eq!((item, err), (3, PushError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn rejects_after_close_and_drains_the_backlog() {
        let q = Admission::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        let (item, err) = q.push(3).unwrap_err();
        assert_eq!((item, err), (3, PushError::Closed));
        // The backlog is still served...
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // ...then the consumer learns the queue is done.
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_returns_a_queued_item_immediately() {
        let q = Admission::new(16);
        q.push(42).unwrap();
        let t0 = Instant::now();
        assert_eq!(q.pop(), Some(42));
        assert!(t0.elapsed() < Duration::from_secs(1), "pop must not wait");
        // The benchmark-facing alias behaves the same whatever it is told.
        q.push(7).unwrap();
        assert_eq!(q.pop_batch(8, Duration::from_secs(60)), Some(vec![7]));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "pop_batch must not wait"
        );
    }

    #[test]
    fn blocked_workers_drain_every_push_exactly_once() {
        const WORKERS: usize = 4;
        const ITEMS: usize = 500;
        let q = Arc::new(Admission::new(ITEMS));
        let blocked = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (q, blocked) = (Arc::clone(&q), Arc::clone(&blocked));
                std::thread::spawn(move || {
                    blocked.fetch_add(1, Ordering::SeqCst);
                    let mut got = Vec::new();
                    while let Some(item) = q.pop() {
                        got.push(item);
                    }
                    got
                })
            })
            .collect();
        // Every worker is at (or about to enter) its first blocking pop.
        while blocked.load(Ordering::SeqCst) < WORKERS {
            std::thread::yield_now();
        }
        for i in 0..ITEMS {
            q.push(i).unwrap();
        }
        q.close();
        let mut all: Vec<usize> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..ITEMS).collect::<Vec<_>>(),
            "lost or duplicated items"
        );
    }

    #[test]
    fn close_wakes_every_blocked_worker_and_the_backlog_is_still_served() {
        let q = Arc::new(Admission::<u32>::new(4));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for w in workers {
            assert_eq!(w.join().unwrap(), None, "close must wake a blocked pop");
        }

        let q = Admission::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1), "close keeps the backlog");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn requeue_goes_to_the_head_in_order_past_capacity_and_close() {
        let q = Admission::new(2);
        q.push(10).unwrap();
        q.push(11).unwrap();
        q.close();
        q.requeue(vec![1, 2, 3]);
        assert_eq!(q.len(), 5);
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![1, 2, 3, 10, 11]);
    }
}
