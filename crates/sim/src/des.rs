//! A minimal deterministic discrete-event core.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Logical simulation time in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From microseconds.
    #[must_use]
    pub fn from_us(us: f64) -> Self {
        Self((us * 1000.0).round() as u64)
    }

    /// As microseconds.
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// As nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

/// A deterministic time-ordered event queue. Ties break by insertion order,
/// so identical runs replay identically.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    payloads: std::collections::HashMap<u64, E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            payloads: std::collections::HashMap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — events cannot rewrite history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let id = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, id)));
        self.payloads.insert(id, event);
    }

    /// Schedules `event` `delay` after now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, id)) = self.heap.pop()?;
        self.now = at;
        // Heap ids and payload keys are inserted in lockstep, so the
        // payload is present; a desynced queue drops the slot instead of
        // panicking mid-simulation.
        let payload = self.payloads.remove(&id)?;
        Some((at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn relative_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "first");
        q.pop();
        q.schedule_in(SimTime(7), "second");
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(17));
    }

    #[test]
    fn time_conversions() {
        let t = SimTime::from_us(2.5);
        assert_eq!(t.as_ns(), 2500);
        assert!((t.as_us() - 2.5).abs() < 1e-9);
        assert_eq!((SimTime(10) - SimTime(20)).as_ns(), 0, "saturating");
    }
}
