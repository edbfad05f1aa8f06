//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in clock cycles since simulation start.
///
/// `Cycle` is a newtype over `u64` so that cycle counts cannot be confused
/// with other integer quantities (message counts, addresses, ...).
///
/// ```rust
/// use xg_sim::Cycle;
/// let t = Cycle::ZERO + 10;
/// assert_eq!(t.as_u64(), 10);
/// assert_eq!((t + 5) - t, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a `Cycle` from a raw cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction, returning the number of cycles between two
    /// points in time (zero if `earlier` is actually later).
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Cycles elapsed between two points in time.
    ///
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Cycle::new(100);
        assert_eq!(t + 20, Cycle::new(120));
        assert_eq!(Cycle::new(120) - t, 20);
        assert_eq!(t.saturating_since(Cycle::new(150)), 0);
        assert_eq!(Cycle::new(150).saturating_since(t), 50);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Cycle::ZERO < Cycle::new(1));
        assert_eq!(Cycle::new(7).to_string(), "7");
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    // The underflow check is a `debug_assert!`, compiled out of release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }
}
