//! A node's inbox: the queue of [`NodeEvent`]s its event loop drains,
//! with a bell that rings the loop's poller only while the loop is
//! parked.
//!
//! Lock calls, guard drops, crash/recover/shutdown and the channel
//! transport's pumps all post here. A post is one short critical section
//! on the queue. It rings the bell (one eventfd write) only if the loop
//! has published that it is parking, and then only once per parking: a
//! busy loop is never woken, because it drains the queue before it parks
//! again.
//!
//! The park protocol closes the lost-wakeup window. [`InboxRx::park`]
//! checks the queue and sets `parked` under the queue's lock, so a post
//! either lands before the check (and the loop does not wait) or after
//! it (and sees `parked`, and rings).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tokq_sys::Waker;

use crate::node::NodeEvent;

struct Queue {
    events: VecDeque<NodeEvent>,
    /// Set when the loop has exited: posts fail, so callers see the node
    /// as shut down.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// True while the loop waits (or is about to) on its poller. Set only
    /// under the queue lock; cleared by the loop when it wakes and by the
    /// first post that rings.
    parked: AtomicBool,
    bell: Waker,
}

/// The posting side of a node's inbox. Clone freely.
#[derive(Clone)]
pub(crate) struct InboxTx {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for InboxTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InboxTx { .. }")
    }
}

/// The draining side, owned by the node loop. Dropping it closes the
/// inbox and drops every queued event, so callers blocked on a grant see
/// their channel disconnect.
pub(crate) struct InboxRx {
    shared: Arc<Shared>,
}

/// A new inbox whose bell is a fresh eventfd.
pub(crate) fn inbox() -> io::Result<(InboxTx, InboxRx)> {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            events: VecDeque::new(),
            closed: false,
        }),
        parked: AtomicBool::new(false),
        bell: Waker::new()?,
    });
    Ok((
        InboxTx {
            shared: Arc::clone(&shared),
        },
        InboxRx { shared },
    ))
}

impl InboxTx {
    /// Queues `ev`, ringing the bell if the loop is parked. Hands `ev`
    /// back if the loop has exited.
    pub(crate) fn send(&self, ev: NodeEvent) -> Result<(), NodeEvent> {
        {
            let mut q = self.shared.queue.lock();
            if q.closed {
                return Err(ev);
            }
            q.events.push_back(ev);
        }
        // The lock above orders this load after any `park` that found the
        // queue empty, so a set flag is visible here. The swap lets only
        // one post per parking pay for the write.
        let parked = &self.shared.parked;
        if parked.load(Ordering::Relaxed) && parked.swap(false, Ordering::Relaxed) {
            // Only EAGAIN at a saturated counter can fail, and then the
            // eventfd is already readable.
            let _ = self.shared.bell.wake();
        }
        Ok(())
    }
}

impl InboxRx {
    /// The eventfd the loop registers with its poller.
    pub(crate) fn bell(&self) -> &Waker {
        &self.shared.bell
    }

    /// Moves up to `max` queued events to the back of `out`.
    pub(crate) fn take(&self, out: &mut VecDeque<NodeEvent>, max: usize) {
        let mut q = self.shared.queue.lock();
        let n = q.events.len().min(max);
        out.extend(q.events.drain(..n));
    }

    /// Publishes that the loop is about to wait, unless events are already
    /// queued. Returns whether the loop may wait: after `true` every post
    /// rings the bell until [`InboxRx::unpark`].
    pub(crate) fn park(&self) -> bool {
        let q = self.shared.queue.lock();
        if !q.events.is_empty() {
            return false;
        }
        self.shared.parked.store(true, Ordering::Relaxed);
        true
    }

    /// Ends a parking: posts stop ringing.
    pub(crate) fn unpark(&self) {
        self.shared.parked.store(false, Ordering::Relaxed);
    }
}

impl Drop for InboxRx {
    fn drop(&mut self) {
        let dropped = {
            let mut q = self.shared.queue.lock();
            q.closed = true;
            std::mem::take(&mut q.events)
        };
        // Outside the lock: dropping an Acquire drops its grant sender.
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tokq_sys::{Events, Interest, Poller};

    #[test]
    fn posts_ring_only_a_parked_loop_and_only_once() {
        let (tx, rx) = inbox().expect("eventfd");
        let poller = Poller::new().expect("poller");
        poller
            .register(rx.bell(), 0, Interest::READABLE.edge())
            .expect("register");
        let mut events = Events::with_capacity(4);
        let mut out = VecDeque::new();

        tx.send(NodeEvent::Recover).expect("open");
        assert!(!rx.park(), "a queued event keeps the loop awake");
        rx.take(&mut out, 16);
        assert_eq!(out.len(), 1);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );

        assert!(rx.park());
        tx.send(NodeEvent::Crash).expect("open");
        tx.send(NodeEvent::Recover).expect("open");
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            1
        );
        rx.unpark();
        // The second post found the flag cleared by the first: no write.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
        rx.take(&mut out, 1);
        assert_eq!(out.len(), 2, "take honours its bound");
    }

    #[test]
    fn dropping_the_loop_side_closes_the_inbox() {
        let (tx, rx) = inbox().expect("eventfd");
        let (grant, granted) = crossbeam::channel::bounded(1);
        tx.send(NodeEvent::Acquire {
            shard: crate::service::ShardId(0),
            grant,
        })
        .expect("open");
        drop(rx);
        assert!(tx.send(NodeEvent::Shutdown).is_err());
        assert!(granted.recv().is_err(), "queued grant sender dropped");
    }
}
