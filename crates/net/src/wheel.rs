//! A timer wheel for the live driver.
//!
//! Semantically identical to the simulator's timer handling: timers armed
//! with the same deadline fire in arming order (the `seq` tiebreaker), and
//! `pop_due` never fires a timer early. It is the simulator's radix queue
//! over timer tokens: live deadlines are monotone, since `pop_due` pops
//! only at or before `now` and a handler arms at `now + delay` from a
//! clock that never goes back.

use hypersub_simnet::queue::RadixQueue;
use hypersub_simnet::SimTime;

/// Pending timers ordered by absolute deadline, FIFO within a deadline.
#[derive(Default)]
pub struct TimerWheel {
    timers: RadixQueue<u64>,
}

impl TimerWheel {
    /// Arms a timer to fire at absolute time `at`, which may not be before
    /// the deadline of a timer already popped.
    pub fn arm(&mut self, at: SimTime, token: u64) {
        self.timers.push(at, token);
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.peek_time()
    }

    /// Pops the earliest timer whose deadline is `<= now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<u64> {
        match self.timers.peek_time() {
            Some(at) if at <= now => self.timers.pop().map(|(_, token)| token),
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
