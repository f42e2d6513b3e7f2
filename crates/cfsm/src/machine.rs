//! Codesign finite state machines.
//!
//! A CFSM (the POLIS behavioral unit) is an extended FSM that reacts to
//! input events: when the events required by one of its transitions are
//! simultaneously present (and the guard holds), the transition *fires*,
//! atomically executing its [`Cfg`] body — emitting output events, updating
//! local variables — and moving to the next control state. One firing is
//! the unit of synchronization between the simulation master and the
//! component power estimators (paper §3, footnote 3).

use crate::cfg::{Cfg, ExecEnv, Execution, Stmt, ValidateCfgError};
use crate::event::{EventBuffer, EventId, EventOccurrence};
use crate::expr::{Expr, VarId};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a CFSM control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a transition within one CFSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub u32);

/// One CFSM transition.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Source control state.
    pub from: StateId,
    /// Events that must all be present for the transition to be enabled.
    /// Must be nonempty (CFSMs are reactive).
    pub trigger: Vec<EventId>,
    /// Optional guard over local variables and trigger event values; the
    /// transition is enabled only if it evaluates nonzero.
    pub guard: Option<Expr>,
    /// The reaction body.
    pub body: Cfg,
    /// Destination control state.
    pub to: StateId,
}

impl Transition {
    /// The events this transition's body *may* emit: every
    /// [`Stmt::Emit`] on any path through the body, regardless of
    /// whether a particular execution reaches it. This is the syntactic
    /// producer set the static liveness checker builds its event graph
    /// from (an over-approximation of what one firing actually emits).
    pub fn emits(&self) -> BTreeSet<EventId> {
        let mut out = BTreeSet::new();
        for b in self.body.blocks() {
            for s in &b.stmts {
                if let Stmt::Emit { event, .. } = s {
                    out.insert(*event);
                }
            }
        }
        out
    }
}

/// Errors detected by [`Cfsm::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateCfsmError {
    /// The machine has no states.
    NoStates,
    /// A transition references an unknown state.
    UnknownState(TransitionId, StateId),
    /// A transition has an empty trigger.
    EmptyTrigger(TransitionId),
    /// A transition body failed CFG validation.
    InvalidBody(TransitionId, ValidateCfgError),
}

impl fmt::Display for ValidateCfsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateCfsmError::NoStates => write!(f, "machine has no states"),
            ValidateCfsmError::UnknownState(t, s) => {
                write!(f, "transition {} references unknown state {}", t.0, s)
            }
            ValidateCfsmError::EmptyTrigger(t) => {
                write!(f, "transition {} has an empty trigger", t.0)
            }
            ValidateCfsmError::InvalidBody(t, e) => {
                write!(f, "transition {} has an invalid body: {e}", t.0)
            }
        }
    }
}

impl std::error::Error for ValidateCfsmError {}

/// The static definition of a CFSM process.
#[derive(Debug, Clone)]
pub struct Cfsm {
    name: String,
    states: Vec<String>,
    initial: StateId,
    vars: Vec<(String, i64)>,
    transitions: Vec<Transition>,
}

impl Cfsm {
    /// Starts building a machine with the given name.
    pub fn builder(name: impl Into<String>) -> CfsmBuilder {
        CfsmBuilder {
            name: name.into(),
            states: Vec::new(),
            vars: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state names, indexed by [`StateId`].
    pub fn states(&self) -> &[String] {
        &self.states
    }

    /// The initial control state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// The declared local variables `(name, initial value)`.
    pub fn vars(&self) -> &[(String, i64)] {
        &self.vars
    }

    /// The transitions, indexed by [`TransitionId`].
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Looks up one transition.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.0 as usize]
    }

    /// The union of every transition's [syntactic emit
    /// set](Transition::emits): all events this machine may ever produce.
    pub fn emitted_events(&self) -> BTreeSet<EventId> {
        let mut out = BTreeSet::new();
        for t in &self.transitions {
            out.extend(t.emits());
        }
        out
    }

    /// Checks structural sanity of states, triggers and bodies.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateCfsmError`] found.
    pub fn validate(&self) -> Result<(), ValidateCfsmError> {
        if self.states.is_empty() {
            return Err(ValidateCfsmError::NoStates);
        }
        let n = self.states.len() as u32;
        for (i, t) in self.transitions.iter().enumerate() {
            let id = TransitionId(i as u32);
            if t.from.0 >= n {
                return Err(ValidateCfsmError::UnknownState(id, t.from));
            }
            if t.to.0 >= n {
                return Err(ValidateCfsmError::UnknownState(id, t.to));
            }
            if t.trigger.is_empty() {
                return Err(ValidateCfsmError::EmptyTrigger(id));
            }
            t.body
                .validate()
                .map_err(|e| ValidateCfsmError::InvalidBody(id, e))?;
        }
        Ok(())
    }

    /// Creates a fresh runtime (initial state, initial variable values,
    /// empty input buffers sized for `n_events` network event types).
    pub fn spawn(&self, n_events: usize) -> CfsmRuntime {
        CfsmRuntime {
            state: self.initial,
            vars: self.vars.iter().map(|&(_, init)| init).collect(),
            buffer: EventBuffer::new(n_events),
            firings: 0,
        }
    }

    /// Returns the first enabled transition for the runtime's current state
    /// and buffered inputs, without firing it.
    pub fn enabled(&self, rt: &CfsmRuntime) -> Option<TransitionId> {
        for (i, t) in self.transitions.iter().enumerate() {
            if t.from != rt.state {
                continue;
            }
            if !t.trigger.iter().all(|&e| rt.buffer.is_present(e)) {
                continue;
            }
            if let Some(g) = &t.guard {
                let buffer = &rt.buffer;
                let val = g.eval(&rt.vars, &|e| buffer.value(e).unwrap_or(0));
                if val == 0 {
                    continue;
                }
            }
            return Some(TransitionId(i as u32));
        }
        None
    }

    /// Fires the first enabled transition, if any: executes its body
    /// against `env` (for shared-memory functional values), consumes the
    /// trigger events, and moves to the next state.
    pub fn try_fire(&self, rt: &mut CfsmRuntime, env: &mut dyn ExecEnv) -> Option<FireResult> {
        let tid = self.enabled(rt)?;
        let t = &self.transitions[tid.0 as usize];
        // Capture trigger event values before consumption so the body can
        // read them through `Expr::EventValue`.
        let captured: Vec<(EventId, i64)> = rt
            .buffer
            .present()
            .map(|e| (e, rt.buffer.value(e).unwrap_or(0)))
            .collect();
        struct BodyEnv<'a> {
            captured: &'a [(EventId, i64)],
            inner: &'a mut dyn ExecEnv,
        }
        impl ExecEnv for BodyEnv<'_> {
            fn event_value(&self, event: EventId) -> i64 {
                self.captured
                    .iter()
                    .find(|&&(e, _)| e == event)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| self.inner.event_value(event))
            }
            fn mem_read(&mut self, addr: u64) -> i64 {
                self.inner.mem_read(addr)
            }
            fn mem_write(&mut self, addr: u64, value: i64) {
                self.inner.mem_write(addr, value)
            }
        }
        let mut body_env = BodyEnv {
            captured: &captured,
            inner: env,
        };
        let from = rt.state;
        let execution = t.body.execute(&mut rt.vars, &mut body_env);
        for &e in &t.trigger {
            rt.buffer.consume(e);
        }
        rt.state = t.to;
        rt.firings += 1;
        Some(FireResult {
            transition: tid,
            from,
            to: t.to,
            execution,
        })
    }
}

/// The mutable runtime of one CFSM instance.
#[derive(Debug, Clone)]
pub struct CfsmRuntime {
    state: StateId,
    vars: Vec<i64>,
    buffer: EventBuffer,
    firings: u64,
}

impl CfsmRuntime {
    /// Current control state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Current variable values.
    pub fn vars(&self) -> &[i64] {
        &self.vars
    }

    /// Mutable variable values (for test setup).
    pub fn vars_mut(&mut self) -> &mut [i64] {
        &mut self.vars
    }

    /// The input event buffers.
    pub fn buffer(&self) -> &EventBuffer {
        &self.buffer
    }

    /// Delivers an input occurrence (single-place buffer semantics).
    pub fn deliver(&mut self, occ: EventOccurrence) {
        self.buffer.deliver(occ);
    }

    /// Number of transitions fired so far.
    pub fn firings(&self) -> u64 {
        self.firings
    }
}

/// The outcome of firing one transition.
#[derive(Debug, Clone)]
pub struct FireResult {
    /// Which transition fired.
    pub transition: TransitionId,
    /// State before the firing.
    pub from: StateId,
    /// State after the firing.
    pub to: StateId,
    /// The body execution (path, emissions, macro-ops, memory accesses).
    pub execution: Execution,
}

/// Builder for [`Cfsm`] definitions.
///
/// # Examples
///
/// ```
/// use cfsm::{Cfsm, Cfg, EventId, Expr, Stmt, VarId};
///
/// let mut b = Cfsm::builder("counter");
/// let idle = b.state("idle");
/// let n = b.var("n", 0);
/// b.transition(
///     idle,
///     vec![EventId(0)], // trigger: TICK
///     None,
///     Cfg::straight_line(vec![Stmt::Assign {
///         var: n,
///         expr: Expr::add(Expr::Var(n), Expr::Const(1)),
///     }]),
///     idle,
/// );
/// let machine = b.finish().expect("valid machine");
/// assert_eq!(machine.name(), "counter");
/// assert_eq!(machine.transitions().len(), 1);
/// ```
#[derive(Debug)]
pub struct CfsmBuilder {
    name: String,
    states: Vec<String>,
    vars: Vec<(String, i64)>,
    transitions: Vec<Transition>,
}

impl CfsmBuilder {
    /// Declares a control state; the first one declared is initial.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(name.into());
        id
    }

    /// Declares a local variable with an initial value.
    pub fn var(&mut self, name: impl Into<String>, init: i64) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push((name.into(), init));
        id
    }

    /// Adds a transition; earlier transitions have priority when several
    /// are enabled simultaneously.
    pub fn transition(
        &mut self,
        from: StateId,
        trigger: Vec<EventId>,
        guard: Option<Expr>,
        body: Cfg,
        to: StateId,
    ) -> TransitionId {
        let id = TransitionId(self.transitions.len() as u32);
        self.transitions.push(Transition {
            from,
            trigger,
            guard,
            body,
            to,
        });
        id
    }

    /// Adds the same (trigger, body) transition from *every* declared state
    /// to `to` — the usual encoding of a `watching RESET` handler.
    pub fn transition_from_all(
        &mut self,
        trigger: Vec<EventId>,
        guard: Option<Expr>,
        body: Cfg,
        to: StateId,
    ) {
        for s in 0..self.states.len() as u32 {
            self.transitions.push(Transition {
                from: StateId(s),
                trigger: trigger.clone(),
                guard: guard.clone(),
                body: body.clone(),
                to,
            });
        }
    }

    /// Finalizes and validates the machine.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateCfsmError`] found.
    pub fn finish(self) -> Result<Cfsm, ValidateCfsmError> {
        let m = Cfsm {
            name: self.name,
            states: self.states,
            initial: StateId(0),
            vars: self.vars,
            transitions: self.transitions,
        };
        m.validate()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::NullEnv;
    use crate::cfg::Stmt;

    fn tick() -> EventId {
        EventId(0)
    }
    fn out() -> EventId {
        EventId(1)
    }

    fn counter() -> Cfsm {
        let mut b = Cfsm::builder("counter");
        let idle = b.state("idle");
        let n = b.var("n", 0);
        b.transition(
            idle,
            vec![tick()],
            None,
            Cfg::straight_line(vec![
                Stmt::Assign {
                    var: n,
                    expr: Expr::add(Expr::Var(n), Expr::Const(1)),
                },
                Stmt::Emit {
                    event: out(),
                    value: Some(Expr::Var(n)),
                },
            ]),
            idle,
        );
        b.finish().expect("valid")
    }

    #[test]
    fn fires_only_when_trigger_present() {
        let m = counter();
        let mut rt = m.spawn(2);
        assert!(m.enabled(&rt).is_none());
        assert!(m.try_fire(&mut rt, &mut NullEnv).is_none());
        rt.deliver(EventOccurrence::pure(tick()));
        assert_eq!(m.enabled(&rt), Some(TransitionId(0)));
        let fr = m.try_fire(&mut rt, &mut NullEnv).expect("fires");
        assert_eq!(fr.execution.emitted, vec![(out(), Some(1))]);
        assert_eq!(rt.vars()[0], 1);
        // Trigger consumed: not enabled again until redelivered.
        assert!(m.enabled(&rt).is_none());
        assert_eq!(rt.firings(), 1);
    }

    #[test]
    fn guard_blocks_firing() {
        let mut b = Cfsm::builder("guarded");
        let s = b.state("s");
        let v = b.var("v", 0);
        b.transition(
            s,
            vec![tick()],
            Some(Expr::gt(Expr::Var(v), Expr::Const(5))),
            Cfg::empty(),
            s,
        );
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(1);
        rt.deliver(EventOccurrence::pure(tick()));
        assert!(m.enabled(&rt).is_none());
        rt.vars_mut()[0] = 6;
        assert!(m.enabled(&rt).is_some());
    }

    #[test]
    fn conjunction_trigger_needs_all_events() {
        let mut b = Cfsm::builder("and");
        let s = b.state("s");
        b.transition(s, vec![EventId(0), EventId(1)], None, Cfg::empty(), s);
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(2);
        rt.deliver(EventOccurrence::pure(EventId(0)));
        assert!(m.enabled(&rt).is_none());
        rt.deliver(EventOccurrence::pure(EventId(1)));
        assert!(m.enabled(&rt).is_some());
    }

    #[test]
    fn event_values_readable_in_body_and_guard() {
        let mut b = Cfsm::builder("reader");
        let s = b.state("s");
        let v = b.var("v", 0);
        b.transition(
            s,
            vec![EventId(0)],
            Some(Expr::gt(Expr::EventValue(EventId(0)), Expr::Const(10))),
            Cfg::straight_line(vec![Stmt::Assign {
                var: v,
                expr: Expr::EventValue(EventId(0)),
            }]),
            s,
        );
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(1);
        rt.deliver(EventOccurrence::valued(EventId(0), 5));
        assert!(m.enabled(&rt).is_none()); // guard fails
        rt.deliver(EventOccurrence::valued(EventId(0), 99));
        m.try_fire(&mut rt, &mut NullEnv).expect("fires");
        assert_eq!(rt.vars()[0], 99);
    }

    #[test]
    fn transition_priority_is_declaration_order() {
        let mut b = Cfsm::builder("prio");
        let s = b.state("s");
        let t = b.state("t");
        let u = b.state("u");
        b.transition(s, vec![tick()], None, Cfg::empty(), t);
        b.transition(s, vec![tick()], None, Cfg::empty(), u);
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(1);
        rt.deliver(EventOccurrence::pure(tick()));
        let fr = m.try_fire(&mut rt, &mut NullEnv).expect("fires");
        assert_eq!(fr.to, t);
    }

    #[test]
    fn state_changes_follow_transitions() {
        let mut b = Cfsm::builder("two");
        let a = b.state("a");
        let c = b.state("c");
        b.transition(a, vec![tick()], None, Cfg::empty(), c);
        b.transition(c, vec![tick()], None, Cfg::empty(), a);
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(1);
        for expected in [c, a, c] {
            rt.deliver(EventOccurrence::pure(tick()));
            let fr = m.try_fire(&mut rt, &mut NullEnv).expect("fires");
            assert_eq!(fr.to, expected);
            assert_eq!(rt.state(), expected);
        }
    }

    #[test]
    fn transition_from_all_encodes_reset() {
        let mut b = Cfsm::builder("resettable");
        let a = b.state("a");
        let c = b.state("c");
        b.transition(a, vec![tick()], None, Cfg::empty(), c);
        b.transition_from_all(vec![EventId(2)], None, Cfg::empty(), a);
        let m = b.finish().expect("valid");
        let mut rt = m.spawn(3);
        rt.deliver(EventOccurrence::pure(tick()));
        m.try_fire(&mut rt, &mut NullEnv).expect("to c");
        assert_eq!(rt.state(), c);
        rt.deliver(EventOccurrence::pure(EventId(2)));
        m.try_fire(&mut rt, &mut NullEnv).expect("reset");
        assert_eq!(rt.state(), a);
    }

    #[test]
    fn validate_catches_empty_trigger_and_bad_state() {
        let mut b = Cfsm::builder("bad");
        let s = b.state("s");
        b.transition(s, vec![], None, Cfg::empty(), s);
        assert!(matches!(
            b.finish(),
            Err(ValidateCfsmError::EmptyTrigger(_))
        ));

        let mut b = Cfsm::builder("bad2");
        let s = b.state("s");
        b.transition(s, vec![tick()], None, Cfg::empty(), StateId(9));
        assert!(matches!(
            b.finish(),
            Err(ValidateCfsmError::UnknownState(_, _))
        ));
    }

    #[test]
    fn emit_sets_cover_all_paths() {
        use crate::cfg::{CfgBuilder, Terminator};
        // A branch body emitting different events on each arm: the
        // syntactic emit set must include both.
        let mut cb = CfgBuilder::new();
        let entry = cb.block(
            vec![],
            Terminator::Branch {
                cond: Expr::Var(VarId(0)),
                then_block: crate::cfg::BlockId(1),
                else_block: crate::cfg::BlockId(2),
            },
        );
        assert_eq!(entry.0, 0);
        cb.block(
            vec![Stmt::Emit { event: EventId(1), value: None }],
            Terminator::Return,
        );
        cb.block(
            vec![Stmt::Emit { event: EventId(2), value: None }],
            Terminator::Return,
        );
        let mut b = Cfsm::builder("brancher");
        let s = b.state("s");
        b.var("v", 0);
        b.transition(s, vec![tick()], None, cb.finish().expect("valid cfg"), s);
        let m = b.finish().expect("valid");
        let emitted = m.emitted_events();
        assert!(emitted.contains(&EventId(1)) && emitted.contains(&EventId(2)));
        assert!(!emitted.contains(&tick()));
        assert_eq!(m.transition(TransitionId(0)).emits(), emitted);
    }

    #[test]
    fn no_states_rejected() {
        let b = Cfsm::builder("empty");
        assert!(matches!(b.finish(), Err(ValidateCfsmError::NoStates)));
    }
}
