//! Simulation time.
//!
//! The master measures time in *master clock cycles*. All component
//! simulators report their costs in cycles of the master clock; physical
//! time is derived by dividing by the clock frequency supplied in the
//! technology parameters of the enclosing framework.

/// An absolute point in simulated time, in master clock cycles.
///
/// `SimTime` is a monotone, totally ordered quantity.
///
/// # Examples
///
/// ```
/// use desim::SimTime;
///
/// let t0 = SimTime::ZERO;
/// let t1 = SimTime::from_cycles(10);
/// assert_eq!(t1.cycles() - t0.cycles(), 10);
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time at the given absolute cycle count.
    ///
    /// ```
    /// # use desim::SimTime;
    /// assert_eq!(SimTime::from_cycles(0), SimTime::ZERO);
    /// ```
    pub const fn from_cycles(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// The absolute cycle count of this time point.
    pub const fn cycles(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.cycles(), 0);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_cycles(1) < SimTime::from_cycles(2));
    }
}
