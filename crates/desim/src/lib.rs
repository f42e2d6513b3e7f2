//! `desim` — the event queue, simulated time and watchdog budgets of a
//! deterministic discrete-event simulation.
//!
//! This crate holds the time-keeping parts of the SOC power co-estimation
//! framework from *"Efficient Power Co-Estimation Techniques for
//! System-on-Chip Design"* (Lajolo, Raghunathan, Dey, Lavagno — DATE 2000).
//! The paper's single simulation master, with its global view of simulated
//! time, is `co_estimation::CoSimulator`: it pops this crate's
//! [`EventQueue`], checks each event against a [`Watchdog`], and schedules
//! the software tasks on the shared processor itself.
//!
//! The crate provides:
//!
//! * [`SimTime`] — simulated time in master clock cycles;
//! * [`EventQueue`] — a timestamp-ordered pending-event set with FIFO
//!   tie-breaking (bit-for-bit reproducible schedules);
//! * [`Watchdog`] / [`WatchdogConfig`] — execution budgets (wall clock,
//!   simulated cycles, event count, livelock detection) that let a guarded
//!   run terminate with a partial result instead of hanging.
//!
//! # Examples
//!
//! ```
//! use desim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_cycles(3), "b");
//! q.push(SimTime::from_cycles(1), "a");
//! assert_eq!(q.pop(), Some((SimTime::from_cycles(1), "a")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod time;
mod watchdog;

pub use queue::EventQueue;
pub use time::SimTime;
pub use watchdog::{Watchdog, WatchdogConfig, WatchdogTrip};
