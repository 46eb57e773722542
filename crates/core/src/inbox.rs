//! A node's inbox: the queue of [`NodeEvent`]s its node drains, with a
//! bell that rings the node's reactor only while the node is parked.
//!
//! Crash/recover/shutdown, fault-panel transitions and the channel
//! transport's frames post here; lock calls do not (they run on the
//! calling thread). A post is one short critical section on the queue.
//! It rings the bell (one eventfd write) only if the node's reactor has
//! published that the node is parked, and then only once per parking: a
//! node being driven is never rung, because its reactor drains the queue
//! before it parks the node again. The queue is drained by whichever
//! thread holds the node's core, the reactor or a lock caller, so events
//! keep their order relative to the lock calls that follow them.
//!
//! Most visits find the inbox empty, so [`InboxRx::take`] first reads a
//! `queued` flag that posts set under the queue's lock, and takes the lock
//! only when the flag is set. A post that has not set the flag yet is
//! concurrent with the take, as if it had taken the lock just after it.
//!
//! The park protocol closes the lost-wakeup window. [`InboxRx::park`]
//! checks the queue and sets `parked` under the queue's lock, so a post
//! either lands before the check (and the reactor does not park the
//! node) or after it (and sees `parked`, and rings).
//!
//! The bell is an eventfd registered level-triggered in the poller the
//! node shares with its reactor's other nodes, and nowhere else: a lock
//! caller polls the node's own poller, which does not hold it. A ring
//! stays ready until the reactor visiting the node for it resets it with
//! [`InboxRx::drain_bell`].

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use tokq_obs::Counter;
use tokq_sys::Waker;

use crate::node::NodeEvent;

struct Queue {
    events: VecDeque<NodeEvent>,
    /// Set when the node has shut down: posts fail, so callers see the
    /// node as shut down.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// True while events are queued. Written only under the queue lock:
    /// set by posts, cleared when the queue is drained or closed. A post's
    /// `Release` store pairs with the `Acquire` load in [`InboxRx::take`];
    /// the events themselves are read under the lock.
    queued: AtomicBool,
    /// True while the node is parked (or about to be). Set only under the
    /// queue lock; cleared by the reactor when it drives the node and by
    /// the first post that rings.
    parked: AtomicBool,
    bell: Waker,
    /// Every write to the bell, by posts and by [`InboxRx::ring`].
    rings: Counter,
}

impl Shared {
    fn ring(&self) {
        self.rings.inc();
        // Only EAGAIN at a saturated counter can fail, and then the
        // eventfd is already readable.
        let _ = self.bell.wake();
    }
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

/// The draining side, owned by the node's core. Closing it (or dropping
/// it) drops every queued event and makes later posts fail.
pub(crate) struct InboxRx {
    shared: Arc<Shared>,
}

/// A new inbox whose bell is a fresh eventfd, counting every ring in
/// `rings`.
pub(crate) fn inbox(rings: Counter) -> io::Result<(InboxTx, InboxRx)> {
    let shared = Arc::new(Shared {
        queue: Mutex::new(Queue {
            events: VecDeque::new(),
            closed: false,
        }),
        queued: AtomicBool::new(false),
        parked: AtomicBool::new(false),
        bell: Waker::new()?,
        rings,
    });
    Ok((
        InboxTx {
            shared: Arc::clone(&shared),
        },
        InboxRx { shared },
    ))
}

impl InboxTx {
    /// Queues `ev`, ringing the bell if the node is parked. Hands `ev`
    /// back if the node has shut down.
    pub(crate) fn send(&self, ev: NodeEvent) -> Result<(), NodeEvent> {
        {
            let mut q = self.shared.queue.lock();
            if q.closed {
                return Err(ev);
            }
            q.events.push_back(ev);
            self.shared.queued.store(true, Ordering::Release);
        }
        // The lock above orders this load after any `park` that found the
        // queue empty, so a set flag is visible here. The swap lets only
        // one post per parking pay for the write.
        let parked = &self.shared.parked;
        if parked.load(Ordering::Relaxed) && parked.swap(false, Ordering::Relaxed) {
            self.shared.ring();
        }
        Ok(())
    }
}

impl InboxRx {
    /// The eventfd the node registers with its poller.
    pub(crate) fn bell(&self) -> &Waker {
        &self.shared.bell
    }

    /// Resets a ring the reactor's wait reported: the bell is no longer
    /// ready until the next ring.
    pub(crate) fn drain_bell(&self) {
        // Only EAGAIN (nothing rang) is expected, and reset absorbs it.
        let _ = self.shared.bell.reset();
    }

    /// Moves up to `max` queued events to the back of `out`. An empty
    /// inbox costs one atomic load.
    pub(crate) fn take(&self, out: &mut VecDeque<NodeEvent>, max: usize) {
        if !self.shared.queued.load(Ordering::Acquire) {
            return;
        }
        let mut q = self.shared.queue.lock();
        let n = q.events.len().min(max);
        out.extend(q.events.drain(..n));
        if q.events.is_empty() {
            self.shared.queued.store(false, Ordering::Relaxed);
        }
    }

    /// Publishes that the node is about to be parked, unless events are
    /// already queued. Returns whether it may be: after `true` every post
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

    /// Rings the bell whether or not a post would: a thread other than
    /// the reactor changed what the parked node waits for.
    pub(crate) fn ring(&self) {
        self.shared.ring();
    }

    /// Closes the inbox: queued events are dropped and later posts fail.
    pub(crate) fn close(&self) {
        let dropped = {
            let mut q = self.shared.queue.lock();
            q.closed = true;
            self.shared.queued.store(false, Ordering::Relaxed);
            std::mem::take(&mut q.events)
        };
        drop(dropped);
    }
}

impl Drop for InboxRx {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tokq_sys::{Events, Interest, Poller};

    #[test]
    fn posts_ring_only_a_parked_loop_and_only_once() {
        let rings = Counter::detached();
        let (tx, rx) = inbox(rings.clone()).expect("eventfd");
        let poller = Poller::new().expect("poller");
        poller
            .register(rx.bell(), 0, Interest::READABLE)
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
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            1,
            "a ring stays ready until drained"
        );
        rx.drain_bell();
        // The second post found the flag cleared by the first: no write.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0
        );
        rx.take(&mut out, 1);
        assert_eq!(out.len(), 2, "take honours its bound");
        assert_eq!(rings.get(), 1);
        rx.ring();
        assert_eq!(rings.get(), 2, "an explicit ring counts too");
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            1
        );
        rx.drain_bell();
        rx.drain_bell();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::ZERO))
                .expect("poll"),
            0,
            "drained, and draining again is harmless"
        );
    }

    #[test]
    fn a_post_from_another_thread_is_taken_by_the_next_take() {
        let (tx, rx) = inbox(Counter::detached()).expect("eventfd");
        let mut out = VecDeque::new();
        rx.take(&mut out, 16);
        assert!(out.is_empty());
        std::thread::spawn(move || {
            tx.send(NodeEvent::Crash).expect("open");
            tx.send(NodeEvent::Recover).expect("open");
        })
        .join()
        .expect("poster");
        assert!(!rx.park(), "queued events keep the node awake");
        rx.take(&mut out, 1);
        assert!(matches!(out.pop_front(), Some(NodeEvent::Crash)));
        assert!(!rx.park(), "a partial take leaves the rest queued");
        rx.take(&mut out, 16);
        assert!(matches!(out.pop_front(), Some(NodeEvent::Recover)));
        rx.take(&mut out, 16);
        assert!(out.is_empty(), "drained");
        assert!(rx.park(), "an empty inbox may park");
    }

    #[test]
    fn closing_the_loop_side_drops_queued_events_and_refuses_posts() {
        let (tx, rx) = inbox(Counter::detached()).expect("eventfd");
        tx.send(NodeEvent::Crash).expect("open");
        rx.close();
        assert!(tx.send(NodeEvent::Shutdown).is_err());
        let mut out = VecDeque::new();
        rx.take(&mut out, 16);
        assert!(out.is_empty(), "queued events dropped");
    }
}
