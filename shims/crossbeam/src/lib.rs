//! Offline shim for `crossbeam`.
//!
//! One surface is used by the workspace: `crossbeam::channel` bounded
//! queues (the serving ingestion/outcome paths — their only user: the
//! sharded replay engine hands nothing across threads per record, it fans
//! indices out and joins). It is a bounded MPMC queue over
//! `std::sync::{Mutex, Condvar}` with crossbeam's disconnect semantics.
//! Scoped threads are the standard library's (`std::thread::scope`),
//! called directly wherever the workspace spawns.

/// Bounded MPMC channel API mirroring `crossbeam::channel`.
///
/// Semantics match crossbeam where the workspace relies on them:
/// `send` blocks while the queue is full and fails only once every
/// receiver is gone; `recv` blocks while the queue is empty and keeps
/// draining buffered messages after the last sender disconnects,
/// erroring only when the queue is empty *and* no sender remains.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
        /// Receivers parked in `recv` waiting on `not_empty`. Senders only
        /// notify when this is non-zero: `pthread_cond_signal` costs a few
        /// hundred ns on this class of kernel even with nobody waiting,
        /// which would dominate the per-message budget of a steady-state
        /// pipeline that never parks. The count is mutated under the same
        /// mutex that guards the queue (incremented before the wait
        /// atomically releases the lock), so a skipped notify can never
        /// race a concurrent parker.
        waiting_recv: usize,
        /// Senders parked in `send` waiting on `not_full` (same contract).
        waiting_send: usize,
    }

    struct Inner<T> {
        shared: Mutex<Shared<T>>,
        /// Signalled when space frees up or all receivers disconnect.
        not_full: Condvar,
        /// Signalled when a message arrives or all senders disconnect.
        not_empty: Condvar,
    }

    /// Error returned by [`Sender::send`]: every receiver disconnected.
    /// The unsent message is handed back.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The queue is at capacity; the message is handed back.
        Full(T),
        /// Every receiver disconnected; the message is handed back.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`]: the queue is empty and every
    /// sender disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty but senders remain.
        Empty,
        /// The queue is empty and every sender disconnected.
        Disconnected,
    }

    /// Rounds of `yield_now` a blocking operation spends polling before
    /// parking on the condvar (shim behaviour, not a crossbeam API). The
    /// one production user is the serving transport (up to 64 records per
    /// message), which has always run at 16. Measured on `serving` on the
    /// 2-vCPU container (ISSUE 17): parking at once (0) is ≈ 15–20 %
    /// slower at one worker; 1 024 read ≈ 15 % *faster* there and level
    /// when pinned to one core — re-tuning is a perf change of its own.
    const SPIN_YIELDS: usize = 16;

    /// Sending half of a bounded channel. Cloning adds a sender.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half of a bounded channel. Cloning adds a receiver.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates a bounded MPMC channel holding at most `cap` messages.
    /// Zero-capacity rendezvous channels are not supported by the shim.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "shim bounded channel requires capacity >= 1");
        let inner = Arc::new(Inner {
            shared: Mutex::new(Shared {
                queue: VecDeque::with_capacity(cap),
                cap,
                senders: 1,
                receivers: 1,
                waiting_recv: 0,
                waiting_send: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued, or until every receiver
        /// has disconnected.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut msg = msg;
            for _ in 0..SPIN_YIELDS {
                match self.try_send(msg) {
                    Ok(()) => return Ok(()),
                    Err(TrySendError::Disconnected(m)) => return Err(SendError(m)),
                    Err(TrySendError::Full(m)) => {
                        msg = m;
                        std::thread::yield_now();
                    }
                }
            }
            let mut shared = self.inner.shared.lock().unwrap();
            loop {
                if shared.receivers == 0 {
                    return Err(SendError(msg));
                }
                if shared.queue.len() < shared.cap {
                    shared.queue.push_back(msg);
                    let notify = shared.waiting_recv > 0;
                    drop(shared);
                    if notify {
                        self.inner.not_empty.notify_one();
                    }
                    return Ok(());
                }
                shared.waiting_send += 1;
                shared = self.inner.not_full.wait(shared).unwrap();
                shared.waiting_send -= 1;
            }
        }

        /// Enqueues without blocking, reporting a full queue to the caller.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut shared = self.inner.shared.lock().unwrap();
            if shared.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if shared.queue.len() >= shared.cap {
                return Err(TrySendError::Full(msg));
            }
            shared.queue.push_back(msg);
            let notify = shared.waiting_recv > 0;
            drop(shared);
            if notify {
                self.inner.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.shared.lock().unwrap().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut shared = self.inner.shared.lock().unwrap();
                shared.senders -= 1;
                shared.senders
            };
            if remaining == 0 {
                // Wake receivers parked in recv so they can observe the
                // disconnect once the buffer drains.
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives. Buffered messages are still
        /// delivered after the last sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            for _ in 0..SPIN_YIELDS {
                match self.try_recv() {
                    Ok(msg) => return Ok(msg),
                    Err(TryRecvError::Disconnected) => return Err(RecvError),
                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                }
            }
            let mut shared = self.inner.shared.lock().unwrap();
            loop {
                if let Some(msg) = shared.queue.pop_front() {
                    let notify = shared.waiting_send > 0;
                    drop(shared);
                    if notify {
                        self.inner.not_full.notify_one();
                    }
                    return Ok(msg);
                }
                if shared.senders == 0 {
                    return Err(RecvError);
                }
                shared.waiting_recv += 1;
                shared = self.inner.not_empty.wait(shared).unwrap();
                shared.waiting_recv -= 1;
            }
        }

        /// Dequeues without blocking, distinguishing empty from closed.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut shared = self.inner.shared.lock().unwrap();
            if let Some(msg) = shared.queue.pop_front() {
                let notify = shared.waiting_send > 0;
                drop(shared);
                if notify {
                    self.inner.not_full.notify_one();
                }
                return Ok(msg);
            }
            if shared.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.shared.lock().unwrap().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut shared = self.inner.shared.lock().unwrap();
                shared.receivers -= 1;
                shared.receivers
            };
            if remaining == 0 {
                // Wake senders parked in send so they can observe the
                // disconnect instead of blocking forever.
                self.inner.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvError, TryRecvError, TrySendError};

    #[test]
    fn bounded_fifo_order_preserved() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_send_reports_full_then_succeeds_after_drain() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(2).unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_drains_buffer_after_all_senders_drop() {
        let (tx, rx) = bounded(2);
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Ok(8));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_once_receiver_disconnects() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn blocked_sender_unblocks_when_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0u64).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| tx.send(1u64));
            // The spawned send blocks on the full queue until this drain.
            assert_eq!(rx.recv(), Ok(0));
            h.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(1));
        });
    }

    #[test]
    fn blocked_receiver_unblocks_on_send_across_threads() {
        let (tx, rx) = bounded(2);
        let total: u64 = std::thread::scope(|scope| {
            let producers: Vec<_> = (0..4u64)
                .map(|i| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        for j in 0..16u64 {
                            tx.send(i * 16 + j).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            for p in producers {
                p.join().unwrap();
            }
            sum
        });
        assert_eq!(total, (0..64u64).sum());
    }
}
