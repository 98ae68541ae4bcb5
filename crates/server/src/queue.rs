//! A bounded MPMC job queue and the worker pool draining it.
//!
//! The queue is the server's backpressure point: reactors
//! [`try_push`](BoundedQueue::try_push) runs and, when it is full, park the
//! run and stop reading its socket, so a saturated engine degrades into
//! TCP flow control instead of unbounded buffering. Workers block on
//! [`pop`](BoundedQueue::pop); closing the queue drains the remaining jobs
//! (graceful quiesce) before the workers exit.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job executed on a pool worker.
pub type Job = Box<dyn FnOnce() + Send>;

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue (std `Mutex` + `Condvar`; the workspace's
/// `parking_lot` shim carries no condvar).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(cap.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push. Returns the item back when the queue is full or
    /// closed — the caller parks it for a retry (or drops the job).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] / [`PushError::Closed`] carrying the rejected
    /// item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.queue.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        inner.queue.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop. Returns `None` only once the queue is closed *and*
    /// drained, so every accepted job runs before shutdown completes.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Close the queue: further pushes fail, waiting poppers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

/// Rejection from [`BoundedQueue::try_push`], returning the item.
pub enum PushError<T> {
    /// Queue at capacity.
    Full(T),
    /// Queue closed (server shutting down).
    Closed(T),
}

/// A fixed set of worker threads draining a [`BoundedQueue`] of [`Job`]s.
pub struct WorkerPool {
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads draining `queue`.
    pub fn start(queue: Arc<BoundedQueue<Job>>, workers: usize) -> Self {
        let workers = (0..workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("spp-server-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// The shared queue (for producers).
    pub fn queue(&self) -> &Arc<BoundedQueue<Job>> {
        &self.queue
    }

    /// Quiesce: close the queue, let the workers drain every accepted job,
    /// and join them.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn try_push_reports_full_at_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            _ => panic!("expected Full(3)"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(8);
        q.try_push(1).map_err(|_| ()).unwrap();
        q.try_push(2).map_err(|_| ()).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(3)) => {}
            _ => panic!("expected Closed(3)"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn worker_pool_runs_all_accepted_jobs() {
        let queue = Arc::new(BoundedQueue::new(64));
        let pool = WorkerPool::start(Arc::clone(&queue), 4);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            // Push may transiently hit Full under tiny capacities; retry.
            let mut job: Job = Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            loop {
                match queue.try_push(job) {
                    Ok(()) => break,
                    Err(PushError::Full(j)) => {
                        job = j;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("queue closed early"),
                }
            }
        }
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }
}
