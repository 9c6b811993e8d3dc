//! A timer wheel for the live driver.
//!
//! Semantically identical to the simulator's timer handling: timers armed
//! with the same deadline fire in arming order (the `seq` tiebreaker), and
//! `pop_due` never fires a timer early.

use hypersub_simnet::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pending timers ordered by absolute deadline, FIFO within a deadline.
#[derive(Default)]
pub struct TimerWheel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
}

impl TimerWheel {
    /// Arms a timer to fire at absolute time `at`.
    pub fn arm(&mut self, at: SimTime, token: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, token)));
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the earliest timer whose deadline is `<= now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<u64> {
        match self.heap.peek() {
            Some(Reverse((at, _, _))) if *at <= now => {
                let Reverse((_, _, token)) = self.heap.pop().unwrap();
                Some(token)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_then_fifo_order() {
        let mut w = TimerWheel::default();
        w.arm(SimTime::from_millis(20), 2);
        w.arm(SimTime::from_millis(10), 1);
        w.arm(SimTime::from_millis(10), 3);
        assert_eq!(w.next_deadline(), Some(SimTime::from_millis(10)));
        assert_eq!(w.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(w.pop_due(SimTime::from_millis(15)), Some(1));
        assert_eq!(w.pop_due(SimTime::from_millis(15)), Some(3));
        assert_eq!(w.pop_due(SimTime::from_millis(15)), None);
        assert_eq!(w.pop_due(SimTime::from_millis(25)), Some(2));
        assert_eq!(w.next_deadline(), None);
    }
}
