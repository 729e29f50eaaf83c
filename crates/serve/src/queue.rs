//! A bounded MPMC job queue (mutex + condvar) with explicit backpressure:
//! producers never block — a full queue is an error the caller turns into
//! load shedding — while consumers park until work or shutdown arrives.

use crate::sync::Unpoison;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a `try_push` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue is at capacity (backpressure — shed or retry later).
    Full,
    /// The queue has been closed for shutdown.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues without blocking; returns the depth after the push.
    pub(crate) fn try_push(&self, item: T) -> Result<usize, PushRefused> {
        let mut s = self.state.lock().unpoison();
        if s.closed {
            return Err(PushRefused::Closed);
        }
        if s.items.len() >= self.cap {
            return Err(PushRefused::Full);
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means shutdown.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().unpoison();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.not_empty.wait(s).unpoison();
        }
    }

    /// Dequeues without blocking (used by the writer to coalesce a chunk).
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.state.lock().unpoison().items.pop_front()
    }

    /// Current depth.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unpoison().items.len()
    }

    /// Closes the queue: producers are refused, consumers drain then stop.
    pub(crate) fn close(&self) {
        self.state.lock().unpoison().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn backpressure_refuses_when_full() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(PushRefused::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(2), "space freed by the pop");
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushRefused::Closed));
        assert_eq!(q.pop(), Some(7), "closed queues still drain");
        assert_eq!(q.pop(), None, "then report shutdown");
    }

    /// Producers push through a small bound while consumers drain: no
    /// item is lost or duplicated, no push overfills the bound, and `pop`
    /// reports shutdown only once the queue is closed.
    #[test]
    fn concurrent_push_pop_neither_loses_nor_duplicates() {
        const ROUNDS: usize = 3_000;
        const CAP: usize = 2;
        const PRODUCERS: u32 = 3;
        const CONSUMERS: usize = 2;
        const ITEMS: u32 = 8;
        for _ in 0..ROUNDS {
            let q = BoundedQueue::new(CAP);
            let closed = AtomicBool::new(false);
            let start = std::sync::Barrier::new(PRODUCERS as usize + CONSUMERS);
            // Threads report instead of asserting, so a violation cannot
            // strand a peer blocked on the queue.
            let (depths, consumed) = std::thread::scope(|s| {
                let consumers: Vec<_> = (0..CONSUMERS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            let (mut got, mut early_none) = (Vec::new(), 0);
                            loop {
                                match q.pop() {
                                    Some(v) => got.push(v),
                                    None if closed.load(Ordering::SeqCst) => break,
                                    None => early_none += 1,
                                }
                            }
                            (got, early_none)
                        })
                    })
                    .collect();
                let producers: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let (q, start) = (&q, &start);
                        s.spawn(move || {
                            start.wait();
                            let mut max_depth = 0;
                            for v in p * 100..p * 100 + ITEMS {
                                loop {
                                    match q.try_push(v) {
                                        Ok(depth) => {
                                            max_depth = max_depth.max(depth);
                                            break;
                                        }
                                        Err(_) => std::thread::yield_now(),
                                    }
                                }
                            }
                            max_depth
                        })
                    })
                    .collect();
                let depths: Vec<usize> = producers.into_iter().map(|h| h.join().unwrap()).collect();
                closed.store(true, Ordering::SeqCst);
                q.close();
                let consumed: Vec<_> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
                (depths, consumed)
            });
            assert!(
                depths.iter().all(|&d| d <= CAP),
                "a push overfilled the bound: depths {depths:?}"
            );
            assert!(
                consumed.iter().all(|(_, early)| *early == 0),
                "pop reported shutdown on an open queue"
            );
            let mut got: Vec<u32> = consumed.into_iter().flat_map(|(got, _)| got).collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..PRODUCERS)
                .flat_map(|p| p * 100..p * 100 + ITEMS)
                .collect();
            assert_eq!(got, want, "every item popped exactly once");
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for v in 0..10 {
            while q.try_push(v).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
