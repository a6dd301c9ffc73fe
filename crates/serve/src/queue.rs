//! A bounded MPMC job queue over `std` primitives.
//!
//! The server's central admission-control point: admission
//! [`try_push`](BoundedQueue::try_push)es and **never blocks** — a full queue
//! is an immediate, deterministic load-shed decision, not a stall — while
//! worker threads block in [`pop`](BoundedQueue::pop) with a timeout so
//! they can notice shutdown. Capacity is fixed at construction; there is
//! no resizing and no unbounded fallback, which is what makes the shed
//! test deterministic: capacity `Q`, `Q` queued jobs, job `Q+1` is
//! rejected, always.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` jobs; shed the request.
    Full,
    /// The queue was closed (daemon shutting down).
    Closed,
}

struct Inner<T> {
    jobs: VecDeque<T>,
    closed: bool,
    paused: bool,
}

/// A fixed-capacity FIFO shared between admission (the producer) and the
/// worker pool (consumers).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking. `Err(Full)` is the load-shed signal.
    pub fn try_push(&self, job: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, waiting up to `timeout`. `None` means the timeout elapsed
    /// with nothing to do, the pool is paused, or the queue is closed and
    /// drained — workers distinguish by checking their stop flag.
    ///
    /// While [paused](BoundedQueue::set_paused), jobs stay queued (pushes
    /// still admit up to capacity) but no pop returns one — the pause is
    /// taken under the queue mutex, so once `set_paused(true)` returns,
    /// no consumer can pop a job. Closing overrides pausing so shutdown can
    /// always drain.
    pub fn pop(&self, timeout: Duration) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.paused || inner.closed {
                if let Some(job) = inner.jobs.pop_front() {
                    return Some(job);
                }
            }
            if inner.closed {
                return None;
            }
            let (guard, result) = self.ready.wait_timeout(inner, timeout).unwrap();
            inner = guard;
            if result.timed_out() && (inner.paused || inner.jobs.is_empty()) {
                // Timed out (or paused, or closed-and-drained); the
                // caller re-checks its stop flag and loops.
                return None;
            }
        }
    }

    /// Freeze (or release) consumers. Pausing is atomic with respect to
    /// the queue: once this returns with `true`, no job already queued or
    /// pushed later can be popped until release — which is what lets
    /// tests build an exact backlog.
    pub fn set_paused(&self, paused: bool) {
        self.inner.lock().unwrap().paused = paused;
        if !paused {
            self.ready.notify_all();
        }
    }

    /// Whether consumers are currently frozen.
    pub fn is_paused(&self) -> bool {
        self.inner.lock().unwrap().paused
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`],
    /// blocked workers wake, already-queued jobs remain poppable (drain).
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn push_pop_is_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(Duration::from_millis(10)), Some(i));
        }
        assert_eq!(q.pop(Duration::from_millis(1)), None);
    }

    #[test]
    fn overfull_push_is_rejected_deterministically() {
        let q = BoundedQueue::new(3);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        // Every push past capacity fails, every time.
        for i in 0..10 {
            assert_eq!(q.try_push(100 + i), Err(PushError::Full));
        }
        assert_eq!(q.len(), 3);
        // Freeing one slot admits exactly one more.
        q.pop(Duration::from_millis(10)).unwrap();
        q.try_push(99).unwrap();
        assert_eq!(q.try_push(100), Err(PushError::Full));
    }

    #[test]
    fn pause_freezes_consumers_but_admits_producers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.set_paused(true);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // Nothing can be popped while paused — even jobs pushed after.
        assert_eq!(q.pop(Duration::from_millis(20)), None);
        assert_eq!(q.len(), 2);
        // A consumer blocked in pop() wakes on release and drains.
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(job) = q.pop(Duration::from_secs(5)) {
                    got.push(job);
                    if got.len() == 2 {
                        break;
                    }
                }
                got
            })
        };
        thread::sleep(Duration::from_millis(30));
        q.set_paused(false);
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }

    #[test]
    fn close_wakes_blocked_consumers_and_drains() {
        let q = Arc::new(BoundedQueue::new(2));
        q.try_push(1).unwrap();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(job) = q.pop(Duration::from_secs(5)) {
                    got.push(job);
                }
                got
            })
        };
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(consumer.join().unwrap(), vec![1]);
    }
}
