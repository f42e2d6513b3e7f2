//! Execution budgets for guarded simulation runs.
//!
//! A co-simulation that injects faults (or explores a pathological design
//! point) can livelock, spin without advancing simulated time, or run far
//! past any useful horizon. A [`Watchdog`] observes the event-dispatch loop
//! and trips when one of the configured budgets is exhausted, letting the
//! driver terminate with a *partial* result instead of hanging.
//!
//! All budgets default to `None` (disabled): an unlimited watchdog performs
//! only a handful of integer compares per observed event and never reads
//! the wall clock, so guarding a run is free when no budget is set.
//!
//! # Boundary contract
//!
//! Every budget is **inclusive**: the watchdog trips on the first
//! observation strictly *past* the limit, never *at* it.
//!
//! * `max_cycles: Some(n)` — an event dispatched at simulated cycle `n`
//!   is still processed; the first event at cycle `n + 1` or later
//!   trips. A run whose final event lands exactly at cycle `n`
//!   therefore completes (`Completed`), while a budget of `n - 1` over
//!   the same schedule degrades — the off-by-one tests below and the
//!   system-level test in `tests/robustness.rs` pin this down.
//! * `max_events: Some(n)` — exactly `n` events are dispatched; the
//!   `n + 1`-th observation trips *before* the event is handled.
//! * `max_stagnant_events: Some(n)` — `n` consecutive zero-progress
//!   events after the first at an instant are tolerated; the next trips.
//!
//! [`Watchdog::observe`] must be called *before* handling the event it
//! observes, so a tripped budget means the offending event was never
//! processed and the partial result is consistent up to the previous
//! event. The static pre-simulation checker (`socverify`) relies on
//! this contract when it treats the watchdog as its dynamic backstop:
//! a deadlocked-but-busy system trips deterministically at the same
//! event on every run.

use crate::time::SimTime;
use std::fmt;
use std::time::{Duration, Instant};

/// Budgets for a guarded run. Every limit is optional; the default
/// configuration never trips.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Wall-clock deadline for the whole run.
    pub wall_clock: Option<Duration>,
    /// Maximum simulated time, in master clock cycles.
    pub max_cycles: Option<u64>,
    /// Maximum number of dispatched events.
    pub max_events: Option<u64>,
    /// No-progress (livelock) budget: maximum number of consecutive events
    /// dispatched without simulated time advancing.
    pub max_stagnant_events: Option<u64>,
}

impl WatchdogConfig {
    /// A configuration with every budget disabled (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A configuration bounding only simulated time — the natural guard
    /// for a design-space sweep, where one pathological point must not
    /// hang the whole exploration but wall-clock budgets would make runs
    /// machine-dependent (and hence non-reproducible).
    pub fn sim_cycles(limit: u64) -> Self {
        WatchdogConfig {
            max_cycles: Some(limit),
            ..WatchdogConfig::default()
        }
    }
}

/// Why a [`Watchdog`] terminated a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogTrip {
    /// The wall-clock deadline elapsed.
    WallClock {
        /// The configured deadline.
        limit: Duration,
    },
    /// Simulated time ran past the cycle budget.
    SimCycles {
        /// The configured cycle budget.
        limit: u64,
        /// The simulated time at which the budget was exceeded.
        at_cycle: u64,
    },
    /// More events were dispatched than the event budget allows.
    EventBudget {
        /// The configured event budget.
        limit: u64,
    },
    /// Simulated time stopped advancing (livelock).
    Livelock {
        /// The configured stagnant-event budget.
        limit: u64,
        /// The simulated time at which the run stagnated.
        at_cycle: u64,
    },
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchdogTrip::WallClock { limit } => {
                write!(f, "wall-clock deadline of {limit:?} elapsed")
            }
            WatchdogTrip::SimCycles { limit, at_cycle } => {
                write!(f, "simulated time reached cycle {at_cycle}, past the budget of {limit}")
            }
            WatchdogTrip::EventBudget { limit } => {
                write!(f, "event budget of {limit} dispatches exhausted")
            }
            WatchdogTrip::Livelock { limit, at_cycle } => {
                write!(
                    f,
                    "no progress: {limit} consecutive events at cycle {at_cycle} without time advancing"
                )
            }
        }
    }
}

impl std::error::Error for WatchdogTrip {}

/// Tracks budgets across the events of one run (see module docs).
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    started: Option<Instant>,
    events: u64,
    last_cycle: u64,
    stagnant: u64,
}

impl Watchdog {
    /// Creates a watchdog. The wall clock starts on the first
    /// [`observe`](Self::observe) call, not here.
    pub fn new(config: WatchdogConfig) -> Self {
        Watchdog {
            config,
            started: None,
            events: 0,
            last_cycle: 0,
            stagnant: 0,
        }
    }

    /// Records one dispatched event at simulated time `now` and returns the
    /// budget it exhausted, if any. Call once per event, *before* handling
    /// it, so an event scheduled past a deadline is never processed.
    pub fn observe(&mut self, now: SimTime) -> Option<WatchdogTrip> {
        self.events += 1;
        if let Some(limit) = self.config.max_events {
            if self.events > limit {
                return Some(WatchdogTrip::EventBudget { limit });
            }
        }
        let cycle = now.cycles();
        if let Some(limit) = self.config.max_cycles {
            if cycle > limit {
                return Some(WatchdogTrip::SimCycles { limit, at_cycle: cycle });
            }
        }
        if let Some(limit) = self.config.max_stagnant_events {
            if cycle > self.last_cycle || self.events == 1 {
                self.last_cycle = cycle;
                self.stagnant = 0;
            } else {
                self.stagnant += 1;
                if self.stagnant > limit {
                    return Some(WatchdogTrip::Livelock { limit, at_cycle: cycle });
                }
            }
        }
        if let Some(limit) = self.config.wall_clock {
            let started = *self.started.get_or_insert_with(Instant::now);
            if started.elapsed() > limit {
                return Some(WatchdogTrip::WallClock { limit });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_watchdog_never_trips() {
        let mut dog = Watchdog::new(WatchdogConfig::unlimited());
        for t in 0..10_000u64 {
            assert_eq!(dog.observe(SimTime::from_cycles(t / 3)), None);
        }
    }

    #[test]
    fn sim_cycles_constructor_sets_only_the_cycle_budget() {
        let cfg = WatchdogConfig::sim_cycles(500);
        assert_eq!(cfg.max_cycles, Some(500));
        assert!(cfg.wall_clock.is_none() && cfg.max_events.is_none());
        assert!(cfg.max_stagnant_events.is_none());
    }

    #[test]
    fn cycle_budget_trips_on_first_event_past_it() {
        let mut dog = Watchdog::new(WatchdogConfig {
            max_cycles: Some(100),
            ..WatchdogConfig::default()
        });
        assert_eq!(dog.observe(SimTime::from_cycles(100)), None);
        assert_eq!(
            dog.observe(SimTime::from_cycles(101)),
            Some(WatchdogTrip::SimCycles { limit: 100, at_cycle: 101 })
        );
    }

    #[test]
    fn cycle_budget_equal_to_the_schedule_does_not_trip() {
        // A schedule whose last event lands exactly at the budget: every
        // observation passes — the budget is inclusive.
        let mut dog = Watchdog::new(WatchdogConfig::sim_cycles(30));
        for t in [0u64, 10, 20, 30] {
            assert_eq!(dog.observe(SimTime::from_cycles(t)), None, "t={t}");
        }
        // The same schedule against a budget one cycle short: the final
        // event is the one that trips, and it is never processed.
        let mut dog = Watchdog::new(WatchdogConfig::sim_cycles(29));
        for t in [0u64, 10, 20] {
            assert_eq!(dog.observe(SimTime::from_cycles(t)), None, "t={t}");
        }
        assert_eq!(
            dog.observe(SimTime::from_cycles(30)),
            Some(WatchdogTrip::SimCycles { limit: 29, at_cycle: 30 })
        );
    }

    #[test]
    fn event_budget_equal_to_the_schedule_does_not_trip() {
        let mut dog = Watchdog::new(WatchdogConfig {
            max_events: Some(5),
            ..WatchdogConfig::default()
        });
        for t in 0..5u64 {
            assert_eq!(dog.observe(SimTime::from_cycles(t)), None, "t={t}");
        }
    }

    #[test]
    fn event_budget_counts_dispatches() {
        let mut dog = Watchdog::new(WatchdogConfig {
            max_events: Some(3),
            ..WatchdogConfig::default()
        });
        for _ in 0..3 {
            assert_eq!(dog.observe(SimTime::ZERO), None);
        }
        assert_eq!(
            dog.observe(SimTime::ZERO),
            Some(WatchdogTrip::EventBudget { limit: 3 })
        );
    }

    #[test]
    fn livelock_detector_requires_consecutive_stagnation() {
        let cfg = WatchdogConfig {
            max_stagnant_events: Some(2),
            ..WatchdogConfig::default()
        };
        // Progress resets the stagnation counter.
        let mut dog = Watchdog::new(cfg.clone());
        for t in [0u64, 0, 0, 1, 1, 1, 2] {
            assert_eq!(dog.observe(SimTime::from_cycles(t)), None, "t={t}");
        }
        // Three events at the same instant (beyond the first) trip it.
        let mut dog = Watchdog::new(cfg);
        assert_eq!(dog.observe(SimTime::from_cycles(5)), None);
        assert_eq!(dog.observe(SimTime::from_cycles(5)), None);
        assert_eq!(dog.observe(SimTime::from_cycles(5)), None);
        assert_eq!(
            dog.observe(SimTime::from_cycles(5)),
            Some(WatchdogTrip::Livelock { limit: 2, at_cycle: 5 })
        );
    }

    #[test]
    fn wall_clock_deadline_trips() {
        let mut dog = Watchdog::new(WatchdogConfig {
            wall_clock: Some(Duration::ZERO),
            ..WatchdogConfig::default()
        });
        // First observe starts the clock; an elapsed zero-length deadline
        // trips on the next observation at the latest.
        let first = dog.observe(SimTime::ZERO);
        let second = dog.observe(SimTime::from_cycles(1));
        assert!(
            matches!(first, Some(WatchdogTrip::WallClock { .. }))
                || matches!(second, Some(WatchdogTrip::WallClock { .. }))
        );
    }

    #[test]
    fn trips_render_a_reason() {
        let trip = WatchdogTrip::SimCycles { limit: 10, at_cycle: 99 };
        let text = trip.to_string();
        assert!(text.contains("99") && text.contains("10"), "{text}");
    }
}
