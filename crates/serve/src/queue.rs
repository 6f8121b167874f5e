//! One-shot response handles: how a served request gets its answer.
//!
//! [`response_channel`] is the completion primitive: the pool keeps the
//! [`ResponseSlot`] with the queued request, the client keeps the
//! [`ResponseHandle`] and blocks on `wait` (or polls `try_take` /
//! `try_wait`). Dropping an uncompleted slot — a request shed by a crash
//! handoff or dropped with its pool — cancels the handle rather than
//! deadlocking it. The request queues themselves live in the pool's
//! scheduling core.

use std::sync::{Arc, Condvar, Mutex};

struct SlotState<T> {
    value: Option<T>,
    cancelled: bool,
}

struct SlotInner<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

/// Scheduler-side completion half of a one-shot response channel.
pub struct ResponseSlot<T> {
    inner: Arc<SlotInner<T>>,
    completed: bool,
}

/// Client-side waiting half of a one-shot response channel.
pub struct ResponseHandle<T> {
    inner: Arc<SlotInner<T>>,
}

/// The request was dropped before a response was produced (scheduler
/// shutdown mid-flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// Creates a linked one-shot `(completer, waiter)` pair.
pub fn response_channel<T>() -> (ResponseSlot<T>, ResponseHandle<T>) {
    let inner = Arc::new(SlotInner {
        state: Mutex::new(SlotState {
            value: None,
            cancelled: false,
        }),
        ready: Condvar::new(),
    });
    (
        ResponseSlot {
            inner: Arc::clone(&inner),
            completed: false,
        },
        ResponseHandle { inner },
    )
}

impl<T> ResponseSlot<T> {
    /// Delivers the response and wakes the waiter.
    pub fn complete(mut self, value: T) {
        {
            let mut state = self.inner.state.lock().expect("slot lock");
            state.value = Some(value);
        }
        self.completed = true;
        self.inner.ready.notify_all();
    }
}

impl<T> Drop for ResponseSlot<T> {
    fn drop(&mut self) {
        if !self.completed {
            self.inner.state.lock().expect("slot lock").cancelled = true;
            self.inner.ready.notify_all();
        }
    }
}

impl<T> ResponseHandle<T> {
    /// Blocks until the response is delivered (or the request is cancelled).
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] when the scheduler dropped the request without
    /// completing it.
    pub fn wait(self) -> Result<T, Cancelled> {
        let mut state = self.inner.state.lock().expect("slot lock");
        loop {
            if let Some(value) = state.value.take() {
                return Ok(value);
            }
            if state.cancelled {
                return Err(Cancelled);
            }
            state = self.inner.ready.wait(state).expect("slot lock");
        }
    }

    /// Non-blocking probe: consumes the handle and returns the response if
    /// it is already available, or hands the handle back to keep waiting.
    /// (Consuming `self` is what makes "took the value, then blocked on
    /// `wait` forever" unrepresentable.)
    ///
    /// # Errors
    ///
    /// Returns the handle itself when no response has been delivered yet.
    pub fn try_take(self) -> Result<T, Self> {
        let value = self.inner.state.lock().expect("slot lock").value.take();
        match value {
            Some(v) => Ok(v),
            None => Err(self),
        }
    }

    /// Non-blocking probe that also observes cancellation — the primitive a
    /// hedging client polls two handles with: unlike [`Self::try_take`], a
    /// request shed by a dying replica resolves to [`TryWait::Cancelled`]
    /// instead of pending forever.
    pub fn try_wait(self) -> TryWait<T> {
        let mut state = self.inner.state.lock().expect("slot lock");
        if let Some(value) = state.value.take() {
            return TryWait::Ready(value);
        }
        if state.cancelled {
            return TryWait::Cancelled;
        }
        drop(state);
        TryWait::Pending(self)
    }
}

/// Outcome of a non-blocking [`ResponseHandle::try_wait`] probe.
pub enum TryWait<T> {
    /// The response arrived; the handle is consumed.
    Ready(T),
    /// The request was cancelled (slot dropped without completing).
    Cancelled,
    /// No response yet; the handle is returned to keep polling.
    Pending(ResponseHandle<T>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn try_wait_observes_ready_pending_and_cancelled() {
        let (slot, handle) = response_channel::<u32>();
        let handle = match handle.try_wait() {
            TryWait::Pending(h) => h,
            TryWait::Ready(_) | TryWait::Cancelled => panic!("expected pending"),
        };
        slot.complete(11);
        assert!(matches!(handle.try_wait(), TryWait::Ready(11)));

        let (slot, handle) = response_channel::<u32>();
        drop(slot);
        assert!(matches!(handle.try_wait(), TryWait::Cancelled));
    }

    #[test]
    fn response_channel_completes_and_cancels() {
        let (slot, handle) = response_channel::<u32>();
        slot.complete(5);
        assert_eq!(handle.wait(), Ok(5));

        let (slot, handle) = response_channel::<u32>();
        let handle = handle.try_take().expect_err("no response delivered yet");
        drop(slot);
        assert_eq!(handle.wait(), Err(Cancelled));

        let (slot, handle) = response_channel::<u32>();
        slot.complete(9);
        assert_eq!(handle.try_take().ok(), Some(9));
    }

    #[test]
    fn response_channel_cross_thread() {
        let (slot, handle) = response_channel::<String>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            slot.complete("done".to_string());
        });
        assert_eq!(handle.wait().unwrap(), "done");
        t.join().unwrap();
    }
}
