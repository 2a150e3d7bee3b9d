//! A one-value channel built purely on [`crate::Mutex`] + [`crate::Condvar`],
//! so it inherits model-scheduler support for free. Replaces
//! `std::sync::mpsc` in reply paths that the model checker needs to see:
//! an mpsc `recv` blocks invisibly to the scheduler and would turn a
//! modeled cancellation race into a real hang.
//!
//! Semantics match the mpsc subset the runtime uses: `recv` blocks until
//! a value arrives or the sender is dropped without sending
//! (→ [`RecvError`], the "worker lost" signal).

use crate::sync::{Condvar, Mutex};
use std::sync::Arc;

enum Slot<T> {
    Empty,
    Value(T),
    SenderDropped,
}

struct Shared<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

/// Sending half; consumed by [`Sender::send`].
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    sent: bool,
}

/// Receiving half; consumed by [`Receiver::recv`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error from [`Receiver::recv`] when the sender was dropped without
/// sending (mirrors `std::sync::mpsc::RecvError`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("oneshot sender dropped without sending")
    }
}

impl std::error::Error for RecvError {}

/// Create a connected one-value channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared =
        Arc::new(Shared { slot: Mutex::new(Slot::Empty), ready: Condvar::new() });
    (Sender { shared: shared.clone(), sent: false }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Deliver the value. Never fails: if the receiver is already gone
    /// the value is simply dropped with the channel.
    pub fn send(mut self, value: T) {
        *self.shared.slot.lock() = Slot::Value(value);
        self.sent = true;
        self.shared.ready.notify_one();
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if !self.sent {
            let mut slot = self.shared.slot.lock();
            if matches!(*slot, Slot::Empty) {
                *slot = Slot::SenderDropped;
            }
            drop(slot);
            self.shared.ready.notify_one();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until the value arrives, or fail if the sender was dropped
    /// without sending.
    pub fn recv(self) -> Result<T, RecvError> {
        let mut slot = self.shared.slot.lock();
        loop {
            match std::mem::replace(&mut *slot, Slot::Empty) {
                Slot::Value(v) => return Ok(v),
                Slot::SenderDropped => return Err(RecvError),
                Slot::Empty => slot = self.shared.ready.wait(slot),
            }
        }
    }
}
