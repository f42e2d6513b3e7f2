//! The benchmark's own trace sink: it keeps the few record fields the
//! per-layer counts and replays need, and nothing else.

use soctrace::{TraceRecord, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One co-simulated firing, from its `FiringStart` and `FiringEnd`.
#[derive(Debug, Clone, Copy)]
pub struct Firing {
    pub at: u64,
    pub process: u32,
    pub transition: u32,
    pub cycles: u64,
    pub detailed: bool,
}

/// A bus wait a finished firing idled through, charged to its process.
#[derive(Debug, Clone, Copy)]
pub struct IdleWait {
    pub process: u32,
    pub transition: u32,
    pub cycles: u64,
    /// Whether the firing was simulated in detail (the wait is then
    /// stepped through the netlist rather than priced analytically).
    pub detailed: bool,
}

/// What one traced co-simulation emitted.
#[derive(Debug, Default)]
pub struct Recording {
    pub firings: Vec<Firing>,
    pub gate_evals: u64,
    pub gate_events: u64,
    pub layer_answers: u64,
    /// Ledger charges `(component, start, end, energy)`, in charge order.
    pub charges: Vec<(u32, u64, u64, f64)>,
    /// End cycle of every granted bus block.
    pub grant_ends: Vec<u64>,
    pub bus_words: u64,
    pub fetches: u64,
    pub fetch_hits: u64,
    pub idle_waits: Vec<IdleWait>,
    /// Per process, its last firing and whether that firing's execution
    /// charge is still to come; any later charge to the process before
    /// it fires again is the firing's bus-wait idling.
    last_firing: HashMap<u32, (Firing, bool)>,
}

/// A [`TraceSink`] writing into a [`Recording`] the caller keeps a
/// handle to.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink(pub Rc<RefCell<Recording>>);

impl TraceSink for RecordingSink {
    fn record(&mut self, rec: &TraceRecord) {
        let mut guard = self.0.borrow_mut();
        let r = &mut *guard;
        match *rec {
            TraceRecord::FiringStart {
                at,
                process,
                transition,
            } => r.firings.push(Firing {
                at,
                process,
                transition,
                cycles: 0,
                detailed: false,
            }),
            TraceRecord::FiringEnd { cycles, source, .. } => {
                if let Some(f) = r.firings.last_mut() {
                    f.cycles = cycles;
                    f.detailed = source == "detailed";
                    let f = *f;
                    r.last_firing.insert(f.process, (f, true));
                }
            }
            TraceRecord::GateActivity { evals, events, .. } => {
                r.gate_evals += evals;
                r.gate_events += events;
            }
            TraceRecord::LayerAnswered { .. } => r.layer_answers += 1,
            TraceRecord::EnergySample {
                component,
                start,
                end,
                energy_j,
                ..
            } => {
                r.charges.push((component, start, end, energy_j));
                if let Some((f, exec_pending)) = r.last_firing.get_mut(&component) {
                    if *exec_pending {
                        *exec_pending = false;
                    } else {
                        let wait = IdleWait {
                            process: f.process,
                            transition: f.transition,
                            cycles: end.saturating_sub(start),
                            detailed: f.detailed,
                        };
                        r.idle_waits.push(wait);
                    }
                }
            }
            TraceRecord::BusGrant { end, words, .. } => {
                r.grant_ends.push(end);
                r.bus_words += words;
            }
            TraceRecord::IcacheBatch { fetches, hits, .. } => {
                r.fetches += fetches;
                r.fetch_hits += hits;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_charge_before_the_next_firing_is_a_bus_wait() {
        let mut sink = RecordingSink::default();
        let charge = |component, start, end| TraceRecord::EnergySample {
            component,
            start,
            end,
            energy_j: 1e-9,
            provenance: "gate_level",
        };
        for rec in [
            TraceRecord::FiringStart {
                at: 10,
                process: 0,
                transition: 2,
            },
            TraceRecord::FiringEnd {
                at: 10,
                process: 0,
                cycles: 5,
                energy_j: 1e-9,
                source: "detailed",
            },
            charge(0, 10, 15), // execution
            charge(3, 12, 20), // the bus, which never fires
            charge(0, 15, 40), // idling until the last block
            TraceRecord::FiringStart {
                at: 50,
                process: 0,
                transition: 1,
            },
            TraceRecord::FiringEnd {
                at: 50,
                process: 0,
                cycles: 3,
                energy_j: 1e-9,
                source: "cache",
            },
            charge(0, 50, 53),
        ] {
            sink.record(&rec);
        }
        let r = sink.0.take();
        assert_eq!(r.firings.len(), 2);
        assert_eq!((r.firings[0].cycles, r.firings[0].detailed), (5, true));
        assert!(!r.firings[1].detailed);
        assert_eq!(r.charges.len(), 4);
        assert_eq!(r.idle_waits.len(), 1);
        let w = r.idle_waits[0];
        assert_eq!(
            (w.process, w.transition, w.cycles, w.detailed),
            (0, 2, 25, true)
        );
    }
}
