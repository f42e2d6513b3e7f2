//! `socpower` — an umbrella crate re-exporting the whole SOC power
//! co-estimation stack (a reproduction of *"Efficient Power
//! Co-Estimation Techniques for System-on-Chip Design"*, Lajolo,
//! Raghunathan, Dey, Lavagno — DATE 2000).
//!
//! Downstream users can depend on this single crate; the layers are also
//! usable individually:
//!
//! * [`cfsm`] — the CFSM behavioral model (the POLIS analogue);
//! * [`desim`] — the event queue, simulated time and watchdog budgets
//!   the simulation master runs on (PTOLEMY);
//! * [`gatesim`] — gate-level synthesis + power simulation (SIS);
//! * [`iss`] — the SPARClite-style ISS with instruction-level power
//!   models (SPARCsim + Tiwari);
//! * [`cachesim`] — the master-attached cache simulator;
//! * [`busmodel`] — the arbitrated shared-bus power model;
//! * [`coest`] — the co-estimation framework itself (master, caching,
//!   macro-modeling, sampling, separate-estimation baseline, explorer);
//! * [`socverify`] — pre-simulation liveness verification + spec fuzzing;
//! * [`systems`] — the paper's example systems.
//!
//! See the `examples/` directory for runnable walkthroughs, starting
//! with `quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use busmodel;
pub use cachesim;
pub use cfsm;
pub use co_estimation as coest;
pub use desim;
pub use gatesim;
pub use iss;
pub use socverify;
pub use systems;
