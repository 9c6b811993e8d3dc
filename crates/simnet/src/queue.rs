//! The simulator's future-event list.
//!
//! A binary heap keyed on `(time, sequence)`: two events scheduled for the
//! same instant pop in scheduling order, which makes every run bit-for-bit
//! reproducible regardless of heap internals.
//!
//! Event bodies live in a slab beside the heap; the heap itself holds
//! only fixed-size `(time, seq, slot)` handles. Sift-up/sift-down during
//! `schedule`/`pop` then moves 24-byte handles instead of entire
//! `SimEvent<M>` values (a protocol message can be hundreds of bytes),
//! which is a large constant-factor win on the simulator's hottest loop.
//! Pop order is a pure function of `(time, seq)`, so the slab layout —
//! and its LIFO free list — cannot affect determinism.

use crate::time::SimTime;
use hypersub_snapshot::codec;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What can happen in the network.
#[derive(Debug, Clone)]
pub enum SimEvent<M> {
    /// A message arrives at `dst`.
    Deliver {
        /// Sending node index.
        src: usize,
        /// Receiving node index.
        dst: usize,
        /// Protocol payload.
        msg: M,
    },
    /// A timer fires at `node` with an opaque `token`.
    Timer {
        /// Node whose timer fires.
        node: usize,
        /// Token the node uses to tell its timers apart.
        token: u64,
    },
    /// The sender learns a message could not be delivered (fail-stop
    /// "connection refused", surfaced one propagation delay later).
    SendFailed {
        /// Original sender, who receives the notification.
        origin: usize,
        /// The dead destination.
        dst: usize,
        /// The undeliverable message.
        msg: M,
    },
}

codec!(enum SimEvent<M> as "sim event tag" {
    0 => Deliver { src, dst, msg },
    1 => Timer { node, token },
    2 => SendFailed { origin, dst, msg },
});

/// A heap handle: ordering key plus the slab slot holding the event body.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed so BinaryHeap (a max-heap) pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Scheduled>,
    slab: Vec<Option<SimEvent<M>>>,
    free: Vec<u32>,
    seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `ev` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, ev: SimEvent<M>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(ev);
                s
            }
            None => {
                let s = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(ev));
                s
            }
        };
        self.heap.push(Scheduled { at, seq, slot });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent<M>)> {
        let s = self.heap.pop()?;
        let ev = self.slab[s.slot as usize]
            .take()
            .expect("scheduled slot holds an event");
        self.free.push(s.slot);
        Some((s.at, ev))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// All pending events as `(at, seq, event)` triples sorted by pop
    /// order, plus the next sequence number — everything a checkpoint
    /// needs to rebuild an equivalent queue. The slab layout and free
    /// list are deliberately not part of the snapshot: pop order is a
    /// pure function of `(at, seq)`.
    pub fn export_entries(&self) -> (Vec<(SimTime, u64, SimEvent<M>)>, u64)
    where
        M: Clone,
    {
        let mut out: Vec<(SimTime, u64, SimEvent<M>)> = self
            .heap
            .iter()
            .map(|s| {
                let ev = self.slab[s.slot as usize]
                    .clone()
                    .expect("scheduled slot holds an event");
                (s.at, s.seq, ev)
            })
            .collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        (out, self.seq)
    }

    /// Rebuilds a queue from [`export_entries`] output, preserving the
    /// original sequence numbers (and therefore same-instant tie-breaks)
    /// exactly.
    ///
    /// [`export_entries`]: EventQueue::export_entries
    pub fn from_entries(entries: Vec<(SimTime, u64, SimEvent<M>)>, next_seq: u64) -> Self {
        let mut q = EventQueue {
            heap: BinaryHeap::with_capacity(entries.len()),
            slab: Vec::with_capacity(entries.len()),
            free: Vec::new(),
            seq: next_seq,
        };
        for (at, seq, ev) in entries {
            assert!(seq < next_seq, "entry seq must precede next_seq");
            let slot = u32::try_from(q.slab.len()).expect("event slab exceeds u32 slots");
            q.slab.push(Some(ev));
            q.heap.push(Scheduled { at, seq, slot });
        }
        q
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> SimEvent<()> {
        SimEvent::Timer { node, token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(0, 3));
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                SimEvent::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for token in 0..100 {
            q.schedule(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                SimEvent::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn export_restore_preserves_pop_order_and_ties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), timer(0, 3));
        q.schedule(SimTime::from_micros(10), timer(0, 1));
        q.schedule(SimTime::from_micros(10), timer(0, 2)); // same-instant tie
        q.pop(); // free a slab slot so restore sees a non-trivial layout
        q.schedule(SimTime::from_micros(10), timer(0, 9));

        let (entries, next_seq) = q.export_entries();
        let mut restored = EventQueue::from_entries(entries, next_seq);
        let drain = |q: &mut EventQueue<()>| {
            std::iter::from_fn(|| q.pop())
                .map(|(at, ev)| match ev {
                    SimEvent::Timer { token, .. } => (at, token),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        // New events scheduled after restore continue the seq stream.
        q.schedule(SimTime::from_micros(10), timer(0, 42));
        restored.schedule(SimTime::from_micros(10), timer(0, 42));
        assert_eq!(drain(&mut q), drain(&mut restored));
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_micros(7), timer(1, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
