//! Offline stand-in for `crossbeam`: the [`channel`] module offers MPMC
//! bounded and unbounded channels built on `Mutex<VecDeque>` + `Condvar`.
//! Semantics match the real crate for the subset used here: cloneable
//! senders *and* receivers, blocking/non-blocking/timed receive, bounded
//! sends that block when full and fail when all receivers are gone.
#![expect(
    clippy::disallowed_types,
    reason = "the channels block on std::sync::Condvar, which pairs only with std::sync::Mutex"
)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<Shared<T>>,
        /// Signalled when an item is pushed or the channel disconnects.
        readable: Condvar,
        /// Signalled when an item is popped or the channel disconnects.
        writable: Condvar,
        cap: Option<usize>,
    }

    struct Shared<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are dropped.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// All receivers are dropped.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are dropped.
        Disconnected,
    }

    /// The sending half; clone freely.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half; clone freely (MPMC — each message goes to
    /// exactly one receiver).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel with capacity `cap` (`0` is rounded up to
    /// `1`: the shim has no rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Shared {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            cap,
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends, blocking while a bounded channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.inner.queue.lock().expect("channel lock");
            loop {
                if q.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.inner.cap {
                    Some(cap) if q.items.len() >= cap => {
                        q = self.inner.writable.wait(q).expect("channel lock");
                    }
                    _ => break,
                }
            }
            q.items.push_back(value);
            drop(q);
            self.inner.readable.notify_one();
            Ok(())
        }

        /// Sends without blocking; fails with `Full` at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut q = self.inner.queue.lock().expect("channel lock");
            if q.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.inner.cap {
                if q.items.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            q.items.push_back(value);
            drop(q);
            self.inner.readable.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.queue.lock().expect("channel lock").items.len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives, blocking until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.inner.queue.lock().expect("channel lock");
            loop {
                if let Some(v) = q.items.pop_front() {
                    drop(q);
                    self.inner.writable.notify_one();
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvError);
                }
                q = self.inner.readable.wait(q).expect("channel lock");
            }
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.inner.queue.lock().expect("channel lock");
            if let Some(v) = q.items.pop_front() {
                drop(q);
                self.inner.writable.notify_one();
                return Ok(v);
            }
            if q.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Receives, blocking at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.inner.queue.lock().expect("channel lock");
            loop {
                if let Some(v) = q.items.pop_front() {
                    drop(q);
                    self.inner.writable.notify_one();
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self
                    .inner
                    .readable
                    .wait_timeout(q, deadline - now)
                    .expect("channel lock");
                q = guard;
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.queue.lock().expect("channel lock").items.len()
        }

        /// True when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator draining the channel until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.queue.lock().expect("channel lock").senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.queue.lock().expect("channel lock").receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self.inner.queue.lock().expect("channel lock");
            q.senders -= 1;
            if q.senders == 0 {
                drop(q);
                self.inner.readable.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut q = self.inner.queue.lock().expect("channel lock");
            q.receivers -= 1;
            if q.receivers == 0 {
                drop(q);
                self.inner.writable.notify_all();
            }
        }
    }

    /// Borrowing blocking iterator (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning blocking iterator.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn bounded_try_send_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn mpmc_across_threads() {
        let (tx, rx) = channel::bounded::<u64>(4);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || rx.iter().sum::<u64>()));
        }
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (0..100).sum::<u64>());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = channel::unbounded::<u8>();
        let err = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(err, Err(channel::RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = channel::bounded(1);
        drop(rx);
        assert!(tx.send(9).is_err());
    }
}
