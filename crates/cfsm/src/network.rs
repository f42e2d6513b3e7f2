//! CFSM networks — a system is a set of communicating CFSMs plus a
//! HW/SW mapping.
//!
//! Events live in a global namespace per network. An emitted occurrence is
//! broadcast to every process that *listens* to the event (i.e. names it in
//! a trigger, guard or body). Each process is mapped to hardware or to
//! software on the shared embedded processor — the mapping decides which
//! power estimator the co-estimation master dispatches its firings to.

use crate::cfg::{ExecEnv, Stmt, Terminator};
use crate::event::{EventDef, EventId, EventOccurrence};
use crate::expr::Expr;
use crate::machine::{Cfsm, CfsmRuntime, FireResult, ValidateCfsmError};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a process within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether a process is implemented in hardware or software.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Implementation {
    /// Application-specific hardware (gate-level estimator).
    Hw,
    /// Embedded software on the shared processor (ISS estimator).
    Sw,
}

impl fmt::Display for Implementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Implementation::Hw => write!(f, "HW"),
            Implementation::Sw => write!(f, "SW"),
        }
    }
}

#[derive(Debug, Clone)]
struct ProcDef {
    cfsm: Cfsm,
    mapping: Implementation,
    listens: BTreeSet<EventId>,
    emits: BTreeSet<EventId>,
}

/// Errors from [`NetworkBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetworkError {
    /// A process failed CFSM validation.
    InvalidProcess(String, ValidateCfsmError),
    /// A process references an event id outside the network's event table.
    UnknownEvent(String, EventId),
}

impl fmt::Display for BuildNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetworkError::InvalidProcess(p, e) => {
                write!(f, "process `{p}` is invalid: {e}")
            }
            BuildNetworkError::UnknownEvent(p, e) => {
                write!(f, "process `{p}` references unknown event {e}")
            }
        }
    }
}

impl std::error::Error for BuildNetworkError {}

/// The static definition of a system: events, processes and their mapping.
#[derive(Debug, Clone)]
pub struct Network {
    events: Vec<EventDef>,
    procs: Vec<ProcDef>,
}

impl Network {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder {
            events: Vec::new(),
            procs: Vec::new(),
        }
    }

    /// The event table.
    pub fn events(&self) -> &[EventDef] {
        &self.events
    }

    /// Resolves an event name to its id.
    pub fn event_by_name(&self, name: &str) -> Option<EventId> {
        self.events
            .iter()
            .position(|e| e.name == name)
            .map(|i| EventId(i as u32))
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// The CFSM of a process.
    pub fn cfsm(&self, p: ProcId) -> &Cfsm {
        &self.procs[p.0 as usize].cfsm
    }

    /// The HW/SW mapping of a process.
    pub fn mapping(&self, p: ProcId) -> Implementation {
        self.procs[p.0 as usize].mapping
    }

    /// Re-maps a process (design-space exploration knob).
    pub fn set_mapping(&mut self, p: ProcId, mapping: Implementation) {
        self.procs[p.0 as usize].mapping = mapping;
    }

    /// Resolves a process name to its id.
    pub fn process_by_name(&self, name: &str) -> Option<ProcId> {
        self.procs
            .iter()
            .position(|p| p.cfsm.name() == name)
            .map(|i| ProcId(i as u32))
    }

    /// Iterates over process ids.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.procs.len() as u32).map(ProcId)
    }

    /// The events a process listens to (derived from its triggers, guards
    /// and bodies).
    pub fn listens(&self, p: ProcId) -> &BTreeSet<EventId> {
        &self.procs[p.0 as usize].listens
    }

    /// The processes that listen to `event`.
    pub fn listeners(&self, event: EventId) -> impl Iterator<Item = ProcId> + '_ {
        self.procs
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.listens.contains(&event))
            .map(|(i, _)| ProcId(i as u32))
    }

    /// The events a process may emit (the union of its transitions'
    /// [syntactic emit sets](crate::Transition::emits), derived at build
    /// time like the listen sets).
    pub fn emits(&self, p: ProcId) -> &BTreeSet<EventId> {
        &self.procs[p.0 as usize].emits
    }

    /// The processes that may produce `event` — the static
    /// producer/consumer graph edge the liveness checker walks.
    pub fn producers(&self, event: EventId) -> impl Iterator<Item = ProcId> + '_ {
        self.procs
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.emits.contains(&event))
            .map(|(i, _)| ProcId(i as u32))
    }

    /// Creates a fresh runtime state for the whole network.
    pub fn spawn(&self) -> NetworkState {
        NetworkState {
            runtimes: self
                .procs
                .iter()
                .map(|p| p.cfsm.spawn(self.events.len()))
                .collect(),
            memory: SharedMemory::new(),
        }
    }

    /// Delivers an occurrence to every listener (and no one else).
    pub fn broadcast(&self, state: &mut NetworkState, occ: EventOccurrence) {
        for (i, p) in self.procs.iter().enumerate() {
            if p.listens.contains(&occ.event) {
                state.runtimes[i].deliver(occ);
            }
        }
    }

    /// Fires the first enabled transition of process `p`, if any, routing
    /// shared-memory accesses to the network state's functional memory.
    /// Emitted events are **not** yet broadcast — the caller (simulation
    /// master) decides their delivery time.
    pub fn fire(&self, state: &mut NetworkState, p: ProcId) -> Option<FireResult> {
        let NetworkState { runtimes, memory } = state;
        self.procs[p.0 as usize]
            .cfsm
            .try_fire(&mut runtimes[p.0 as usize], memory)
    }

    /// Which process, if any, has an enabled transition (lowest id first).
    pub fn any_enabled(&self, state: &NetworkState) -> Option<ProcId> {
        for (i, p) in self.procs.iter().enumerate() {
            if p.cfsm.enabled(&state.runtimes[i]).is_some() {
                return Some(ProcId(i as u32));
            }
        }
        None
    }
}

/// Mutable runtime state of a [`Network`]: per-process runtimes plus the
/// functional shared memory.
#[derive(Debug, Clone)]
pub struct NetworkState {
    runtimes: Vec<CfsmRuntime>,
    memory: SharedMemory,
}

impl NetworkState {
    /// The runtime of one process.
    pub fn runtime(&self, p: ProcId) -> &CfsmRuntime {
        &self.runtimes[p.0 as usize]
    }

    /// The functional shared memory.
    pub fn memory(&self) -> &SharedMemory {
        &self.memory
    }
}

/// A sparse, functional model of the system's shared memory.
///
/// Timing and energy of accesses are modeled by the `busmodel` and
/// `cachesim` crates; this type only supplies values.
#[derive(Debug, Clone, Default)]
pub struct SharedMemory {
    cells: HashMap<u64, i64>,
    reads: u64,
    writes: u64,
}

impl SharedMemory {
    /// Creates an empty (zero-filled) memory.
    pub fn new() -> Self {
        SharedMemory::default()
    }

    /// Reads the cell at `addr` (0 if never written).
    pub fn read(&self, addr: u64) -> i64 {
        *self.cells.get(&addr).unwrap_or(&0)
    }

    /// Writes the cell at `addr`.
    pub fn write(&mut self, addr: u64, value: i64) {
        self.cells.insert(addr, value);
    }

    /// Total functional reads/writes performed through [`ExecEnv`].
    pub fn access_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

impl ExecEnv for SharedMemory {
    fn event_value(&self, _event: EventId) -> i64 {
        0
    }
    fn mem_read(&mut self, addr: u64) -> i64 {
        self.reads += 1;
        self.read(addr)
    }
    fn mem_write(&mut self, addr: u64, value: i64) {
        self.writes += 1;
        self.write(addr, value);
    }
}

/// Builder for [`Network`]s.
///
/// # Examples
///
/// ```
/// use cfsm::{Network, EventDef, Cfsm, Cfg, EventId, Implementation};
///
/// let mut nb = Network::builder();
/// let tick = nb.event(EventDef::pure("TICK"));
/// let mut mb = Cfsm::builder("blinker");
/// let s = mb.state("s");
/// mb.transition(s, vec![tick], None, Cfg::empty(), s);
/// let machine = mb.finish().expect("valid machine");
/// nb.process(machine, Implementation::Hw);
/// let net = nb.finish().expect("valid network");
/// assert_eq!(net.process_count(), 1);
/// assert_eq!(net.event_by_name("TICK"), Some(tick));
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    events: Vec<EventDef>,
    procs: Vec<(Cfsm, Implementation)>,
}

impl NetworkBuilder {
    /// Declares an event type, returning its id.
    pub fn event(&mut self, def: EventDef) -> EventId {
        let id = EventId(self.events.len() as u32);
        self.events.push(def);
        id
    }

    /// Adds a process with its HW/SW mapping, returning its id.
    pub fn process(&mut self, cfsm: Cfsm, mapping: Implementation) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push((cfsm, mapping));
        id
    }

    /// Finalizes: validates every process and derives listen sets.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildNetworkError`] if any process is invalid or
    /// references an event outside the table.
    pub fn finish(self) -> Result<Network, BuildNetworkError> {
        let n_events = self.events.len() as u32;
        let mut procs = Vec::with_capacity(self.procs.len());
        for (cfsm, mapping) in self.procs {
            cfsm.validate()
                .map_err(|e| BuildNetworkError::InvalidProcess(cfsm.name().to_string(), e))?;
            let mut listens = BTreeSet::new();
            let check = |e: EventId| -> Result<(), BuildNetworkError> {
                if e.0 >= n_events {
                    Err(BuildNetworkError::UnknownEvent(cfsm.name().to_string(), e))
                } else {
                    Ok(())
                }
            };
            for t in cfsm.transitions() {
                for &e in &t.trigger {
                    check(e)?;
                    listens.insert(e);
                }
                if let Some(g) = &t.guard {
                    collect_event_reads(g, &mut listens);
                }
                for b in t.body.blocks() {
                    for s in &b.stmts {
                        match s {
                            Stmt::Assign { expr, .. } => collect_event_reads(expr, &mut listens),
                            Stmt::Emit { event, value } => {
                                check(*event)?;
                                if let Some(v) = value {
                                    collect_event_reads(v, &mut listens);
                                }
                            }
                            Stmt::MemRead { addr, .. } => collect_event_reads(addr, &mut listens),
                            Stmt::MemWrite { addr, value } => {
                                collect_event_reads(addr, &mut listens);
                                collect_event_reads(value, &mut listens);
                            }
                        }
                    }
                    if let Terminator::Branch { cond, .. } = &b.term {
                        collect_event_reads(cond, &mut listens);
                    }
                }
            }
            for &e in &listens {
                if e.0 >= n_events {
                    return Err(BuildNetworkError::UnknownEvent(
                        cfsm.name().to_string(),
                        e,
                    ));
                }
            }
            let emits = cfsm.emitted_events();
            procs.push(ProcDef {
                cfsm,
                mapping,
                listens,
                emits,
            });
        }
        Ok(Network {
            events: self.events,
            procs,
        })
    }
}

fn collect_event_reads(e: &Expr, out: &mut BTreeSet<EventId>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::EventValue(ev) => {
            out.insert(*ev);
        }
        Expr::Unary(_, a) => collect_event_reads(a, out),
        Expr::Binary(_, a, b) => {
            collect_event_reads(a, out);
            collect_event_reads(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    

    fn simple_machine(name: &str, trig: EventId, emit: EventId) -> Cfsm {
        let mut b = Cfsm::builder(name);
        let s = b.state("s");
        b.transition(
            s,
            vec![trig],
            None,
            Cfg::straight_line(vec![Stmt::Emit {
                event: emit,
                value: None,
            }]),
            s,
        );
        b.finish().expect("valid")
    }

    #[test]
    fn listen_sets_derived_from_triggers() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let bv = nb.event(EventDef::pure("B"));
        let p = nb.process(simple_machine("m", a, bv), Implementation::Hw);
        let net = nb.finish().expect("valid");
        assert!(net.listens(p).contains(&a));
        assert!(!net.listens(p).contains(&bv));
        assert_eq!(net.listeners(a).collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn emit_sets_and_producers_derived_at_build_time() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let bv = nb.event(EventDef::pure("B"));
        let p0 = nb.process(simple_machine("m0", a, bv), Implementation::Hw);
        let p1 = nb.process(simple_machine("m1", bv, a), Implementation::Sw);
        let net = nb.finish().expect("valid");
        assert!(net.emits(p0).contains(&bv) && !net.emits(p0).contains(&a));
        assert!(net.emits(p1).contains(&a) && !net.emits(p1).contains(&bv));
        assert_eq!(net.producers(a).collect::<Vec<_>>(), vec![p1]);
        assert_eq!(net.producers(bv).collect::<Vec<_>>(), vec![p0]);
    }

    #[test]
    fn broadcast_reaches_only_listeners() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let bv = nb.event(EventDef::pure("B"));
        let p0 = nb.process(simple_machine("m0", a, bv), Implementation::Hw);
        let p1 = nb.process(simple_machine("m1", bv, a), Implementation::Sw);
        let net = nb.finish().expect("valid");
        let mut st = net.spawn();
        net.broadcast(&mut st, EventOccurrence::pure(a));
        assert!(st.runtime(p0).buffer().is_present(a));
        assert!(!st.runtime(p1).buffer().is_present(a));
    }

    #[test]
    fn fire_executes_and_returns_emissions() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let bv = nb.event(EventDef::pure("B"));
        let p = nb.process(simple_machine("m", a, bv), Implementation::Hw);
        let net = nb.finish().expect("valid");
        let mut st = net.spawn();
        assert!(net.fire(&mut st, p).is_none());
        net.broadcast(&mut st, EventOccurrence::pure(a));
        assert_eq!(net.any_enabled(&st), Some(p));
        let fr = net.fire(&mut st, p).expect("fired");
        assert_eq!(fr.execution.emitted, vec![(bv, None)]);
        assert_eq!(net.any_enabled(&st), None);
    }

    #[test]
    fn unknown_event_rejected() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        // emits EventId(7), never declared
        nb.process(simple_machine("m", a, EventId(7)), Implementation::Hw);
        assert!(matches!(
            nb.finish(),
            Err(BuildNetworkError::UnknownEvent(_, EventId(7)))
        ));
    }

    #[test]
    fn name_lookup() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let b2 = nb.event(EventDef::valued("B"));
        nb.process(simple_machine("prod", a, b2), Implementation::Sw);
        let net = nb.finish().expect("valid");
        assert_eq!(net.event_by_name("B"), Some(b2));
        assert_eq!(net.event_by_name("missing"), None);
        assert!(net.process_by_name("prod").is_some());
        assert_eq!(net.process_by_name("nope"), None);
    }

    #[test]
    fn mapping_can_be_changed() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let p = nb.process(simple_machine("m", a, a), Implementation::Hw);
        let mut net = nb.finish().expect("valid");
        assert_eq!(net.mapping(p), Implementation::Hw);
        net.set_mapping(p, Implementation::Sw);
        assert_eq!(net.mapping(p), Implementation::Sw);
    }

    #[test]
    fn shared_memory_functional_model() {
        let mut m = SharedMemory::new();
        assert_eq!(m.read(100), 0);
        m.write(100, -5);
        assert_eq!(m.read(100), -5);
        use crate::cfg::ExecEnv;
        let v = m.mem_read(100);
        assert_eq!(v, -5);
        m.mem_write(4, 9);
        assert_eq!(m.access_counts(), (1, 1));
    }

    #[test]
    fn guard_event_reads_count_as_listening() {
        let mut nb = Network::builder();
        let a = nb.event(EventDef::pure("A"));
        let t = nb.event(EventDef::valued("T"));
        let mut mb = Cfsm::builder("g");
        let s = mb.state("s");
        mb.transition(
            s,
            vec![a],
            Some(Expr::gt(Expr::EventValue(t), Expr::Const(0))),
            Cfg::empty(),
            s,
        );
        let p = nb.process(mb.finish().expect("valid machine"), Implementation::Hw);
        let net = nb.finish().expect("valid");
        assert!(net.listens(p).contains(&t));
    }
}
