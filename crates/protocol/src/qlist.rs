//! The ordered Q-list carried inside the token (paper §2.1).
//!
//! The Q-list is the heart of the Banerjee–Chrysanthis algorithm: the token
//! carries an ordered list of every node scheduled to execute its critical
//! section, the token is passed head-to-head down the list, and the *tail*
//! of the list is always the next arbiter.
//!
//! Invariants maintained by [`QList`]:
//!
//! * no node appears twice;
//! * entries preserve insertion (scheduling) order unless explicitly sorted
//!   by priority (paper §5.2);
//! * `head()` is the node currently entitled to the token and `tail()` is
//!   the next arbiter.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::types::{NodeId, Priority, SeqNum};

/// One scheduled request inside a [`QList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Entry {
    /// The node that will execute a critical section.
    pub node: NodeId,
    /// The request's per-node sequence number (paper §2.4 fairness
    /// refinement; lets stale duplicates be recognized).
    pub seq: SeqNum,
    /// The requesting node's static priority (paper §5.2); ignored under
    /// FCFS scheduling.
    pub priority: Priority,
}

impl Entry {
    /// Convenience constructor for an entry with default priority.
    pub fn new(node: NodeId, seq: SeqNum) -> Self {
        Entry {
            node,
            seq,
            priority: Priority::default(),
        }
    }

    /// Constructor including a priority.
    pub fn with_priority(node: NodeId, seq: SeqNum, priority: Priority) -> Self {
        Entry {
            node,
            seq,
            priority,
        }
    }
}

/// The ordered list of nodes scheduled to enter their critical sections.
///
/// # Examples
///
/// ```
/// use tokq_protocol::qlist::{Entry, QList};
/// use tokq_protocol::types::{NodeId, SeqNum};
///
/// let mut q = QList::new();
/// q.push_back(Entry::new(NodeId(2), SeqNum(1)));
/// q.push_back(Entry::new(NodeId(5), SeqNum(1)));
/// assert_eq!(q.head(), Some(NodeId(2)));
/// assert_eq!(q.tail(), Some(NodeId(5))); // next arbiter
/// assert_eq!(q.pop_head().unwrap().node, NodeId(2));
/// assert_eq!(q.head(), Some(NodeId(5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize, Hash)]
pub struct QList {
    entries: VecDeque<Entry>,
}

impl QList {
    /// Creates an empty Q-list.
    pub fn new() -> Self {
        QList {
            entries: VecDeque::new(),
        }
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no requests are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The node at the head — the one entitled to the token next.
    pub fn head(&self) -> Option<NodeId> {
        self.entries.front().map(|e| e.node)
    }

    /// The node at the tail — the next arbiter (paper §2.1: "The last node
    /// in Q is always the next arbiter node").
    pub fn tail(&self) -> Option<NodeId> {
        self.entries.back().map(|e| e.node)
    }

    /// The full head entry, if any.
    pub fn head_entry(&self) -> Option<&Entry> {
        self.entries.front()
    }

    /// Appends `entry` unless its node is already scheduled.
    ///
    /// Returns `true` if the entry was added, `false` if a request from the
    /// same node was already present (duplicate suppression).
    pub fn push_back(&mut self, entry: Entry) -> bool {
        if self.contains(entry.node) {
            return false;
        }
        self.entries.push_back(entry);
        true
    }

    /// Prepends `entry` unless its node is already scheduled. Used by token
    /// regeneration (paper §6: the arbiter "adds them on the front of its
    /// Q-list").
    ///
    /// Returns `true` if the entry was added.
    pub fn push_front(&mut self, entry: Entry) -> bool {
        if self.contains(entry.node) {
            return false;
        }
        self.entries.push_front(entry);
        true
    }

    /// Removes and returns the head entry.
    pub fn pop_head(&mut self) -> Option<Entry> {
        self.entries.pop_front()
    }

    /// True if `node` is scheduled anywhere in the list.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|e| e.node == node)
    }

    /// Zero-based position of `node` in the list, if scheduled.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.entries.iter().position(|e| e.node == node)
    }

    /// Removes every entry for `node`, returning how many were removed
    /// (0 or 1 given the uniqueness invariant, but defensive against
    /// deserialized lists).
    pub fn remove(&mut self, node: NodeId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.node != node);
        before - self.entries.len()
    }

    /// Retains only entries whose nodes satisfy `keep`. Used by recovery to
    /// drop entries for nodes that failed to answer an ENQUIRY (paper §6).
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        self.entries.retain(|e| keep(e.node));
    }

    /// Retains only the entries `keep` accepts, in place.
    pub fn retain_entries(&mut self, keep: impl FnMut(&Entry) -> bool) {
        self.entries.retain(keep);
    }

    /// Removes every entry, keeping the buffer for later pushes.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Stable-sorts entries by descending priority (paper §5.2: "the arbiter
    /// will order the requests in the order of the node priorities").
    /// Ties keep FCFS order.
    pub fn sort_by_priority(&mut self) {
        self.entries
            .make_contiguous()
            .sort_by_key(|e| std::cmp::Reverse(e.priority));
    }

    /// Stable-sorts entries by ascending sequence number (paper §2.4
    /// fairness refinement). Ties keep FCFS order.
    pub fn sort_by_seq(&mut self) {
        self.entries.make_contiguous().sort_by_key(|e| e.seq);
    }

    /// Iterates over scheduled entries head-to-tail.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }

    /// The scheduled node ids head-to-tail.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.node)
    }

    /// Appends all entries of `other` (duplicates suppressed), consuming it.
    /// Used by the monitor node to append its stored requests (paper §4.1).
    pub fn append(&mut self, other: QList) {
        for e in other.entries {
            self.push_back(e);
        }
    }

    /// Checks the structural invariant (no duplicate nodes). Intended for
    /// assertions and property tests.
    pub fn invariant_holds(&self) -> bool {
        let mut seen: Vec<NodeId> = self.entries.iter().map(|e| e.node).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        seen.len() == before
    }
}

impl FromIterator<Entry> for QList {
    fn from_iter<I: IntoIterator<Item = Entry>>(iter: I) -> Self {
        let mut q = QList::new();
        for e in iter {
            q.push_back(e);
        }
        q
    }
}

impl Extend<Entry> for QList {
    fn extend<I: IntoIterator<Item = Entry>>(&mut self, iter: I) {
        for e in iter {
            self.push_back(e);
        }
    }
}

impl<'a> IntoIterator for &'a QList {
    type Item = &'a Entry;
    type IntoIter = std::collections::vec_deque::Iter<'a, Entry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl IntoIterator for QList {
    type Item = Entry;
    type IntoIter = std::collections::vec_deque::IntoIter<Entry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl fmt::Display for QList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", e.node)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> Entry {
        Entry::new(NodeId(n), SeqNum(1))
    }

    #[test]
    fn head_tail_and_pop() {
        let mut q: QList = [e(2), e(5), e(4)].into_iter().collect();
        assert_eq!(q.len(), 3);
        assert_eq!(q.head(), Some(NodeId(2)));
        assert_eq!(q.tail(), Some(NodeId(4)));
        assert_eq!(q.pop_head().unwrap().node, NodeId(2));
        assert_eq!(q.head(), Some(NodeId(5)));
        assert_eq!(q.tail(), Some(NodeId(4)));
    }

    #[test]
    fn duplicate_nodes_rejected() {
        let mut q = QList::new();
        assert!(q.push_back(e(1)));
        assert!(!q.push_back(Entry::new(NodeId(1), SeqNum(9))));
        assert!(!q.push_front(e(1)));
        assert_eq!(q.len(), 1);
        assert!(q.invariant_holds());
    }

    #[test]
    fn push_front_for_regeneration() {
        let mut q: QList = [e(3)].into_iter().collect();
        assert!(q.push_front(e(7)));
        assert_eq!(q.head(), Some(NodeId(7)));
        assert_eq!(q.tail(), Some(NodeId(3)));
    }

    #[test]
    fn remove_and_retain() {
        let mut q: QList = [e(1), e(2), e(3)].into_iter().collect();
        assert_eq!(q.remove(NodeId(2)), 1);
        assert_eq!(q.remove(NodeId(2)), 0);
        q.retain(|n| n != NodeId(3));
        assert_eq!(q.nodes().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn position_and_contains() {
        let q: QList = [e(4), e(9)].into_iter().collect();
        assert!(q.contains(NodeId(9)));
        assert!(!q.contains(NodeId(1)));
        assert_eq!(q.position(NodeId(9)), Some(1));
        assert_eq!(q.position(NodeId(1)), None);
    }

    #[test]
    fn priority_sort_is_stable() {
        let mut q = QList::new();
        q.push_back(Entry::with_priority(NodeId(1), SeqNum(1), Priority(1)));
        q.push_back(Entry::with_priority(NodeId(2), SeqNum(1), Priority(5)));
        q.push_back(Entry::with_priority(NodeId(3), SeqNum(1), Priority(5)));
        q.push_back(Entry::with_priority(NodeId(4), SeqNum(1), Priority(3)));
        q.sort_by_priority();
        let order: Vec<u32> = q.nodes().map(|n| n.0).collect();
        // Descending priority, FCFS within equal priority.
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn seq_sort_is_stable_and_in_place_edits_keep_order() {
        let mut q = QList::new();
        for (n, seq) in [(1, 3), (2, 1), (3, 3), (4, 2)] {
            q.push_back(Entry::new(NodeId(n), SeqNum(seq)));
        }
        q.sort_by_seq();
        assert_eq!(q.nodes().map(|n| n.0).collect::<Vec<_>>(), vec![2, 4, 1, 3]);
        q.retain_entries(|e| e.seq > SeqNum(1));
        assert_eq!(q.nodes().map(|n| n.0).collect::<Vec<_>>(), vec![4, 1, 3]);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn append_suppresses_duplicates() {
        let mut a: QList = [e(1), e(2)].into_iter().collect();
        let b: QList = [e(2), e(3)].into_iter().collect();
        a.append(b);
        assert_eq!(a.nodes().map(|n| n.0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let q: QList = [e(2), e(5)].into_iter().collect();
        assert_eq!(q.to_string(), "{n2,n5}");
        assert_eq!(QList::new().to_string(), "{}");
    }

    #[test]
    fn empty_list_edges() {
        let mut q = QList::new();
        assert!(q.is_empty());
        assert_eq!(q.head(), None);
        assert_eq!(q.tail(), None);
        assert_eq!(q.pop_head(), None);
        assert!(q.invariant_holds());
    }
}
