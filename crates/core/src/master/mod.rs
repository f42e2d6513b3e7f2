//! The co-simulation master — the paper's contribution (§3).
//!
//! [`CoSimulator`] simulates the discrete-event behavioral model of the
//! entire system with a global view of time, and synchronizes the
//! per-component power estimators with it: whenever a CFSM transition
//! fires (the unit of synchronization), the master captures the
//! component's pre-firing state and asks the
//! [`AccelPipeline`](crate::AccelPipeline) for its cost — each stacked
//! acceleration layer (macro-model, energy cache, firing-level sampling)
//! either answers from its own state or delegates down, and a full
//! fall-through runs the component's pluggable
//! [`PowerEstimator`](crate::PowerEstimator) backend (gate-level
//! simulation, enhanced ISS, or a linear model). The returned
//! `(cycles, energy)` is folded back into the global schedule: software
//! transitions are serialized on the embedded CPU by priority (the RTOS
//! model), shared-memory traffic is serialized and priced by the bus
//! model, instruction fetches drive the cache simulator (whose reference
//! stream comes from the *behavioral* model, as in the paper), and
//! emissions are delivered when the firing completes — making downstream
//! execution traces timing-sensitive, which is exactly why co-estimation
//! is needed (§2).
//!
//! Every synchronization point can optionally be observed through an
//! attached [`TraceSink`](soctrace::TraceSink)
//! ([`attach_trace`](CoSimulator::attach_trace)): firings, acceleration
//! decisions, ledger charges, bus grants, cache batches, fault
//! injections and watchdog trips are emitted as structured
//! [`TraceRecord`](soctrace::TraceRecord)s with zero cost when no sink
//! is attached.

mod faults_rt;
#[cfg(test)]
mod tests;

use crate::accel::{AccelPipeline, CostSource, FiringCtx};
use crate::account::{AnomalyKind, AnomalyLedger, ComponentId, EnergyAccount};
use crate::caching::EnergyCache;
use crate::config::{CoSimConfig, SocDescription};
use crate::estimator::{
    build_estimator, BuildEstimatorError, DetailedCost, FiringInputs, PowerEstimator,
};
use crate::faults::{self, ResolvedFault};
use crate::macromodel::ParameterFile;
use crate::powermgmt::{PowerRt, PowerState, Settlement};
use crate::report::{
    AccelEffectiveness, CacheEffectiveness, CoSimReport, ProcessReport, Provenance,
    ProvenanceBreakdown, RunOutcome, SamplingEffectiveness,
};
use busmodel::{Bus, MasterId};
use cachesim::Cache;
use cfsm::{EventId, EventOccurrence, Implementation, NetworkState, ProcId};
use desim::{EventQueue, SimTime, Watchdog};
use soctrace::{TraceRecord, TraceSink, Tracer};
use std::collections::HashMap;

/// Master events.
#[derive(Debug, Clone)]
enum Ev {
    /// Environment stimulus or inter-process emission delivery.
    Deliver(EventOccurrence),
    /// A hardware process finished its firing.
    HwDone(ProcId),
    /// The software task occupying the CPU finished.
    SwDone(ProcId),
    /// The bus arbiter may be able to grant a DMA block.
    BusKick,
    /// An injected freeze on the process expires; re-examine readiness.
    Unfreeze(ProcId),
}

/// A firing waiting for its shared-memory phase to finish on the bus.
#[derive(Debug, Clone)]
struct FiringWait {
    proc: ProcId,
    transition: cfsm::TransitionId,
    exec_end: u64,
    detailed: bool,
    is_sw: bool,
    /// Provenance of the firing's energy; bus-wait idling charged when
    /// the firing completes is booked under the same source.
    provenance: Provenance,
    emissions: Vec<(EventId, Option<i64>)>,
}

/// The co-simulation master (see module docs).
///
/// # Examples
///
/// See the `systems` crate for complete SOC descriptions; a minimal
/// one-process system runs end to end like this:
///
/// ```
/// use cfsm::{Cfsm, Cfg, Stmt, Expr, Network, EventDef, Implementation, EventOccurrence};
/// use co_estimation::{CoSimulator, CoSimConfig, SocDescription};
///
/// let mut nb = Network::builder();
/// let tick = nb.event(EventDef::pure("TICK"));
/// let mut mb = Cfsm::builder("counter");
/// let s = mb.state("s");
/// let v = mb.var("v", 0);
/// mb.transition(s, vec![tick], None,
///     Cfg::straight_line(vec![Stmt::Assign {
///         var: v,
///         expr: Expr::add(Expr::Var(v), Expr::Const(1)),
///     }]), s);
/// nb.process(mb.finish()?, Implementation::Hw);
///
/// let soc = SocDescription {
///     name: "counter".into(),
///     network: nb.finish()?,
///     stimulus: (0..4).map(|i| (i * 100, EventOccurrence::pure(tick))).collect(),
///     priorities: vec![1],
/// };
/// let mut sim = CoSimulator::new(soc, CoSimConfig::date2000_defaults())?;
/// let report = sim.run();
/// println!("total energy: {:.3e} J", report.total_energy_j());
/// assert_eq!(report.firings, 4);
/// report.verify_provenance().expect("attribution sums bit-exactly");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CoSimulator {
    soc: SocDescription,
    config: CoSimConfig,
    state: NetworkState,
    estimators: Vec<Box<dyn PowerEstimator>>,
    accel: AccelPipeline,
    tracer: Tracer,
    /// Mirror of every ledger charge, tagged with its energy source
    /// (see [`ProvenanceBreakdown`]'s bit-identity contract).
    provenance: ProvenanceBreakdown,
    /// Power-management runtime (DVFS scaling, gating, leakage).
    /// `None` under the default noop policy — the master then skips the
    /// layer entirely, keeping the default path bit-identical.
    power: Option<PowerRt>,
    queue: EventQueue<Ev>,
    bus: Bus,
    bus_master: Vec<MasterId>,
    icache: Option<Cache>,
    account: EnergyAccount,
    comp_of_proc: Vec<ComponentId>,
    bus_comp: ComponentId,
    cache_comp: ComponentId,
    /// Firings whose shared-memory phase is still being granted block by
    /// block on the bus, keyed by bus request id.
    bus_pending: HashMap<busmodel::ReqId, FiringWait>,
    busy: Vec<bool>,
    cpu_free_at: u64,
    now: u64,
    end_time: u64,
    firings: u64,
    firings_per_proc: Vec<u64>,
    detailed_calls: u64,
    accelerated_calls: u64,
    /// Resolved one-shot faults from the configured plan (empty = no
    /// fault layer; the hot paths gate on this).
    faults: Vec<ResolvedFault>,
    /// Per-process injected-freeze horizon; a process may not fire while
    /// `now < frozen_until[p]`. All zeros without faults.
    frozen_until: Vec<u64>,
    /// Injected arbiter stall: no bus grants while `now < bus_stall_until`.
    bus_stall_until: u64,
    /// Remaining fetch batches that bypass the i-cache.
    force_miss_batches: u64,
    /// Per-process buffer-overwrite counts already recorded as anomalies.
    lost_seen: Vec<u64>,
    anomalies: AnomalyLedger,
    watchdog: Watchdog,
    /// Set when a budget trips; `step` refuses further work once set.
    degraded: Option<String>,
}

impl CoSimulator {
    /// Builds the master: synthesizes/compiles every component, wires the
    /// bus, cache and ledger, assembles the acceleration pipeline, and
    /// queues the stimulus.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildEstimatorError`] if any component fails to build,
    /// if the priority vector does not have one entry per process, if
    /// the synthesis datapath width is outside `1..=63`
    /// ([`BuildEstimatorError::InvalidParams`]), or if the fault plan
    /// names an unknown process/event or has degenerate parameters.
    pub fn new(soc: SocDescription, config: CoSimConfig) -> Result<Self, BuildEstimatorError> {
        if soc.priorities.len() != soc.network.process_count() {
            return Err(BuildEstimatorError::PriorityCount {
                expected: soc.network.process_count(),
                got: soc.priorities.len(),
            });
        }
        config
            .synth
            .validate()
            .map_err(|e| BuildEstimatorError::InvalidParams(e.to_string()))?;
        let faults = faults::resolve(&config.faults, &soc.network)?;
        let n = soc.network.process_count();
        let mut estimators = Vec::with_capacity(n);
        for p in soc.network.process_ids() {
            estimators.push(build_estimator(&soc.network, p, &config)?);
        }
        let mut bus = Bus::new(config.bus.clone());
        let mut bus_master = Vec::with_capacity(n);
        for p in soc.network.process_ids() {
            bus_master.push(bus.register_master(
                soc.network.cfsm(p).name(),
                soc.priorities[p.0 as usize],
            ));
        }
        let mut account = EnergyAccount::new(config.waveform_bucket_cycles);
        let comp_of_proc: Vec<ComponentId> = soc
            .network
            .process_ids()
            .map(|p| account.add_component(soc.network.cfsm(p).name()))
            .collect();
        let bus_comp = account.add_component("bus");
        let cache_comp = account.add_component("icache");
        let mut queue = EventQueue::new();
        for &(t, occ) in &soc.stimulus {
            queue.push(SimTime::from_cycles(t), Ev::Deliver(occ));
        }
        let accel = AccelPipeline::from_config(&config.accel, &config);
        let state = soc.network.spawn();
        let icache = config.icache.clone().map(Cache::new);
        let process_names: Vec<&str> = soc
            .network
            .process_ids()
            .map(|p| soc.network.cfsm(p).name())
            .collect();
        let power = PowerRt::build(&config.power, &process_names, config.clock_hz)?;
        Ok(CoSimulator {
            state,
            estimators,
            accel,
            tracer: Tracer::disabled(),
            // Ledger registration order: processes, then bus, then icache.
            provenance: ProvenanceBreakdown::new(n + 2),
            power,
            queue,
            bus,
            bus_master,
            icache,
            account,
            comp_of_proc,
            bus_comp,
            cache_comp,
            bus_pending: HashMap::new(),
            busy: vec![false; n],
            cpu_free_at: 0,
            now: 0,
            end_time: 0,
            firings: 0,
            firings_per_proc: vec![0; n],
            detailed_calls: 0,
            accelerated_calls: 0,
            faults,
            frozen_until: vec![0; n],
            bus_stall_until: 0,
            force_miss_batches: 0,
            lost_seen: vec![0; n],
            anomalies: AnomalyLedger::new(),
            watchdog: Watchdog::new(config.watchdog.clone()),
            degraded: None,
            soc,
            config,
        })
    }

    /// Builds the master like [`CoSimulator::new`], but first runs the
    /// static liveness checker and rejects specs with error-severity
    /// findings — the fast-fail front door for untrusted specs.
    ///
    /// # Errors
    ///
    /// Returns [`BuildEstimatorError::Unverifiable`] carrying the full
    /// [`VerifyReport`](socverify::VerifyReport) when the spec has an
    /// orphan trigger or a wait cycle, plus every error
    /// [`CoSimulator::new`] can return.
    pub fn new_verified(
        soc: SocDescription,
        config: CoSimConfig,
    ) -> Result<Self, BuildEstimatorError> {
        crate::verify::gate(crate::verify::verify_soc(&soc))?;
        CoSimulator::new(soc, config)
    }

    /// Statically checks the spec this master was built from, without
    /// simulating anything. Read-only: the master is unchanged and a
    /// subsequent [`run`](CoSimulator::run) is bit-identical to one
    /// without the check.
    pub fn verify(&self) -> socverify::VerifyReport {
        crate::verify::verify_soc(&self.soc)
    }

    /// Attaches a trace sink; every subsequent synchronization point
    /// emits a structured [`TraceRecord`]. Tracing is an observability
    /// layer only: the simulated schedule and every energy figure are
    /// bit-for-bit identical with and without a sink.
    pub fn attach_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.attach(sink);
    }

    /// Detaches and returns the trace sink, disabling tracing.
    pub fn detach_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.detach()
    }

    /// Component names in ledger order (one per process, then the bus
    /// and the i-cache) — labels for timeline and waveform exports,
    /// aligned with the `component` field of emitted trace records.
    pub fn component_names(&self) -> Vec<String> {
        (0..self.account.component_count())
            .map(|i| self.account.name(ComponentId(i as u32)).to_string())
            .collect()
    }

    /// Runs to quiescence — or until a watchdog budget or the firing
    /// bound trips, in which case the report's
    /// [`outcome`](CoSimReport::outcome) is [`RunOutcome::Degraded`] and
    /// its figures cover the simulated time up to the trip.
    pub fn run(&mut self) -> CoSimReport {
        if let Some(rt) = &self.power {
            // Trace-only: pin each component whose base power state is
            // not `active` with a synthetic cycle-0 transition, so the
            // trace stream is self-describing for residency
            // reconstruction (DVFS-pinned components never transition
            // at runtime). Reports are unaffected, and plain runs have
            // no power runtime at all.
            for (i, state) in rt.initial_states().into_iter().enumerate() {
                if state != PowerState::Active {
                    self.tracer.emit(|| TraceRecord::PowerTransition {
                        at: 0,
                        process: i as u32,
                        from: PowerState::Active.as_str(),
                        to: state.as_str(),
                    });
                }
            }
        }
        while self.step() {}
        if self.power.is_some() {
            // Settle every component's leakage tail up to the simulated
            // end of run (idempotent: re-running settles nothing).
            let end = self.end_time;
            let settles = self
                .power
                .as_mut()
                .map(|rt| rt.finalize(end))
                .unwrap_or_default();
            for (i, s) in settles.iter().enumerate() {
                self.apply_settlement(ProcId(i as u32), end, s);
            }
        }
        self.report()
    }

    /// Processes one master event; returns `false` when the queue is
    /// exhausted or a budget (watchdog or firing bound) trips.
    pub fn step(&mut self) -> bool {
        if self.degraded.is_some() {
            return false;
        }
        if self.firings >= self.config.max_firings {
            // The firing bound is one instance of the watchdog budget
            // mechanism: report Degraded only when work actually remains.
            if !self.queue.is_empty() {
                self.degrade(format!(
                    "firing budget of {} exhausted with events pending",
                    self.config.max_firings
                ));
            }
            return false;
        }
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = t.cycles();
        if let Some(trip) = self.watchdog.observe(t) {
            // The popped event is intentionally not handled: budgets cut
            // the run *before* the offending dispatch.
            self.degrade(trip.to_string());
            return false;
        }
        if !self.faults.is_empty() {
            self.apply_timed_faults();
        }
        match ev {
            Ev::Deliver(occ) => self.deliver(occ),
            Ev::HwDone(p) | Ev::SwDone(p) => self.busy[p.0 as usize] = false,
            Ev::BusKick => self.bus_kick(t.cycles()),
            Ev::Unfreeze(p) => {
                // The freeze horizon has passed; dispatch_ready below
                // re-examines the process's readiness.
                debug_assert!(self.frozen_until[p.0 as usize] <= self.now);
            }
        }
        self.dispatch_ready();
        true
    }

    /// Records a watchdog trip and marks the run degraded.
    fn degrade(&mut self, reason: String) {
        let now = self.now;
        self.tracer.emit(|| TraceRecord::WatchdogTrip {
            at: now,
            reason: reason.clone(),
        });
        self.anomalies
            .record(now, AnomalyKind::WatchdogTrip { reason: reason.clone() });
        self.degraded = Some(reason);
    }

    /// Charges one window to the ledger, mirroring it into the
    /// provenance breakdown (same `f64`, same `+=` order — the
    /// bit-identity contract) and into the trace.
    ///
    /// This is the power layer's choke point: every *dynamic* charge is
    /// scaled here by the component's operating point at charge time,
    /// so cached and macro-model answers are scaled by the state at
    /// replay time for free. Leakage and wake-overhead charges are
    /// computed in absolute joules and pass through unscaled.
    fn charge(
        &mut self,
        comp: ComponentId,
        start: u64,
        end: u64,
        mut energy_j: f64,
        prov: Provenance,
    ) {
        if let Some(rt) = &mut self.power {
            if !matches!(prov, Provenance::Leakage | Provenance::WakeOverhead) {
                energy_j = rt.scale_dynamic(comp.0 as usize, energy_j);
            }
        }
        self.account.record(comp, start, end, energy_j);
        self.provenance.record(comp.0 as usize, prov, energy_j);
        self.tracer.emit(|| TraceRecord::EnergySample {
            component: comp.0,
            start,
            end,
            energy_j,
            provenance: prov.as_str(),
        });
    }

    /// Charges a *static* window (leakage, wake overhead) to the
    /// ledger: same mirroring as [`charge`](Self::charge), but the
    /// cycles are not booked as busy — the component was idle or gated.
    fn charge_static(
        &mut self,
        comp: ComponentId,
        start: u64,
        end: u64,
        energy_j: f64,
        prov: Provenance,
    ) {
        self.account.record_static(comp, start, end, energy_j);
        self.provenance.record(comp.0 as usize, prov, energy_j);
        self.tracer.emit(|| TraceRecord::EnergySample {
            component: comp.0,
            start,
            end,
            energy_j,
            provenance: prov.as_str(),
        });
    }

    /// Books a power-layer settlement for process `p` at time `at`:
    /// settled leakage spans, power-state transition trace records, and
    /// any wake penalty (charged over the wake-latency window).
    fn apply_settlement(&mut self, p: ProcId, at: u64, s: &Settlement) {
        let comp = self.comp_of_proc[p.0 as usize];
        for span in &s.spans {
            self.charge_static(comp, span.start, span.end, span.energy_j, Provenance::Leakage);
        }
        for tr in &s.transitions {
            self.tracer.emit(|| TraceRecord::PowerTransition {
                at: tr.at,
                process: p.0,
                from: tr.from.as_str(),
                to: tr.to.as_str(),
            });
        }
        if s.wake_energy_j > 0.0 {
            self.charge_static(
                comp,
                at,
                at + s.wake_latency_cycles,
                s.wake_energy_j,
                Provenance::WakeOverhead,
            );
        }
    }

    /// Tries to grant one DMA block at time `t`; a successful grant
    /// schedules the next kick at its end, and a finished request
    /// completes the owning firing.
    fn bus_kick(&mut self, t: u64) {
        if t < self.bus_stall_until {
            // Injected arbiter stall: grants resume at the stall horizon,
            // where a kick is already queued.
            return;
        }
        match self.bus.grant_block(t) {
            Some(g) => {
                self.charge(self.bus_comp, g.start, g.end, g.energy_j, Provenance::BusModel);
                self.tracer.emit(|| TraceRecord::BusGrant {
                    at: t,
                    master: g.master.0,
                    start: g.start,
                    end: g.end,
                    words: g.words,
                    energy_j: g.energy_j,
                    request_done: g.request_done,
                });
                self.queue.push(SimTime::from_cycles(g.end), Ev::BusKick);
                if g.request_done {
                    let Some(wait) = self.bus_pending.remove(&g.request) else {
                        // Every bus request should map to a pending firing;
                        // if not, record the inconsistency and keep going
                        // instead of poisoning the whole run.
                        self.anomalies.record(
                            t,
                            AnomalyKind::RecoveredError {
                                context: format!(
                                    "bus request {:?} completed with no pending firing",
                                    g.request
                                ),
                            },
                        );
                        return;
                    };
                    let end = g.end.max(wait.exec_end);
                    self.complete_firing(wait, end);
                }
            }
            None => {
                // Busy bus: the grant that made it busy scheduled a kick
                // at its end. Idle bus with only future-paced blocks:
                // kick again when the earliest becomes ready.
                if self.bus.busy_until() <= t {
                    if let Some(r) = self.bus.next_ready_time() {
                        if r > t {
                            self.queue.push(SimTime::from_cycles(r), Ev::BusKick);
                        }
                    }
                }
            }
        }
    }

    /// Finishes a firing at time `end`: charges the bus-wait idling,
    /// delivers emissions, and releases the component (and CPU).
    fn complete_firing(&mut self, wait: FiringWait, end: u64) {
        let p = wait.proc;
        let idle = end.saturating_sub(wait.exec_end);
        let idle_energy =
            self.estimators[p.0 as usize].wait_energy(wait.transition, idle, wait.detailed);
        if idle > 0 {
            self.charge(
                self.comp_of_proc[p.0 as usize],
                wait.exec_end,
                end,
                idle_energy,
                wait.provenance,
            );
        }
        for (e, v) in wait.emissions {
            let occ = match v {
                Some(v) => EventOccurrence::valued(e, v),
                None => EventOccurrence::pure(e),
            };
            self.queue.push(SimTime::from_cycles(end), Ev::Deliver(occ));
        }
        let done = if wait.is_sw {
            self.cpu_free_at = end;
            Ev::SwDone(p)
        } else {
            Ev::HwDone(p)
        };
        self.queue.push(SimTime::from_cycles(end), done);
        self.end_time = self.end_time.max(end);
        if let Some(rt) = &mut self.power {
            // The component idles from here; its gate (if any) closes
            // after the policy's idle timeout.
            rt.sleep(p.0 as usize, end);
        }
    }

    /// Current simulation time, cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The acceleration pipeline (introspection: stacked layer names).
    pub fn accel_pipeline(&self) -> &AccelPipeline {
        &self.accel
    }

    /// The energy cache (for histogram extraction — Fig. 4b).
    pub fn energy_cache(&self) -> Option<&EnergyCache> {
        self.accel.energy_cache()
    }

    /// The characterized software parameter file, when macro-modeling is
    /// active.
    pub fn sw_parameter_file(&self) -> Option<&ParameterFile> {
        self.accel.sw_parameter_file()
    }

    /// Schedules every process that can run at the current time.
    fn dispatch_ready(&mut self) {
        let t = self.now;
        // Hardware processes run concurrently; order simultaneous starts
        // by bus priority (descending), then process id.
        let mut hw_ready: Vec<ProcId> = self
            .soc
            .network
            .process_ids()
            .filter(|&p| {
                self.soc.network.mapping(p) == Implementation::Hw
                    && !self.busy[p.0 as usize]
                    && self.frozen_until[p.0 as usize] <= t
                    && self.soc.network.cfsm(p).enabled(self.state.runtime(p)).is_some()
            })
            .collect();
        hw_ready
            .sort_by_key(|&p| (std::cmp::Reverse(self.soc.priorities[p.0 as usize]), p.0));
        for p in hw_ready {
            self.busy[p.0 as usize] = true;
            self.fire(p, t);
        }
        // Software: one task at a time on the shared CPU, arbitrated by
        // the configured RTOS policy, dispatched when the CPU is free.
        if self.cpu_free_at <= t {
            let sw_ready: Option<ProcId> = self
                .soc
                .network
                .process_ids()
                .filter(|&p| {
                    self.soc.network.mapping(p) == Implementation::Sw
                        && !self.busy[p.0 as usize]
                        && self.frozen_until[p.0 as usize] <= t
                        && self
                            .soc
                            .network
                            .cfsm(p)
                            .enabled(self.state.runtime(p))
                            .is_some()
                })
                .max_by_key(|&p| {
                    let pri = match self.config.rtos_policy {
                        crate::config::RtosPolicy::FixedPriority => {
                            self.soc.priorities[p.0 as usize]
                        }
                        crate::config::RtosPolicy::Fifo => 0,
                    };
                    (pri, std::cmp::Reverse(p.0))
                });
            if let Some(p) = sw_ready {
                self.busy[p.0 as usize] = true;
                self.fire(p, t);
            }
        }
    }

    /// Fires process `p` at time `t`: behavioral execution, cost
    /// estimation through the acceleration pipeline, cache integration,
    /// and either immediate completion or hand-off to the bus arbiter for
    /// the shared-memory phase.
    fn fire(&mut self, p: ProcId, t: u64) {
        // Pre-firing snapshot (what the estimators replay).
        let vars_in = self.state.runtime(p).vars().to_vec();
        let ev_snapshot: HashMap<EventId, i64> = {
            let buf = self.state.runtime(p).buffer();
            buf.present()
                .map(|e| (e, buf.value(e).unwrap_or(0)))
                .collect()
        };
        let Some(fr) = self.soc.network.fire(&mut self.state, p) else {
            // dispatch_ready only fires enabled processes, so this is an
            // internal inconsistency — record it and release the slot
            // instead of panicking mid-run.
            self.busy[p.0 as usize] = false;
            self.anomalies.record(
                t,
                AnomalyKind::RecoveredError {
                    context: format!(
                        "process `{}` dispatched while not enabled",
                        self.soc.network.cfsm(p).name()
                    ),
                },
            );
            return;
        };
        self.firings += 1;
        self.firings_per_proc[p.0 as usize] += 1;

        // Power layer: settle the component's leakage up to the firing
        // instant and pay any power-gate wake penalty. The wake latency
        // shifts the whole firing — execution, cache fetches and bus
        // traffic all start after the component is back up.
        let mut t = t;
        if self.power.is_some() {
            let settle = self.power.as_mut().map(|rt| rt.wake(p.0 as usize, t));
            if let Some(s) = settle {
                self.apply_settlement(p, t, &s);
                t += s.wake_latency_cycles;
            }
        }

        self.tracer.emit(|| TraceRecord::FiringStart {
            at: t,
            process: p.0,
            transition: fr.transition.0,
        });

        // Component cost, through the acceleration pipeline.
        let (mut cost, source) = self.estimate(p, &fr, &vars_in, &ev_snapshot, t);
        if !self.faults.is_empty() {
            cost = self.corrupt_cost(p, cost);
        }
        if let Some(rt) = &self.power {
            // A scaled clock stretches the execution window in master
            // cycles; the energy is scaled later, at the charge choke
            // point.
            cost.cycles = rt.stretch_cycles(p.0 as usize, cost.cycles);
        }
        self.tracer.emit(|| TraceRecord::FiringEnd {
            at: t,
            process: p.0,
            cycles: cost.cycles,
            energy_j: cost.energy_j,
            source: source.as_str(),
        });

        // Instruction-cache references come from the *behavioral* model
        // (block trace), independent of which estimator priced the
        // firing — exactly as in the paper.
        let mut stall_cycles = 0u64;
        if let Some(icache) = &mut self.icache {
            if let Some(addrs) =
                self.estimators[p.0 as usize].ifetch_addrs(fr.transition, &fr.execution)
            {
                if self.force_miss_batches > 0 {
                    // Injected bypass: every fetch goes to the next level
                    // at miss cost; the cache itself is neither consulted
                    // nor updated.
                    self.force_miss_batches -= 1;
                    let cfg = icache.config();
                    let fetches = addrs.len() as u64;
                    let de = fetches as f64 * (cfg.access_energy_j + cfg.miss_energy_j);
                    stall_cycles = fetches * cfg.miss_penalty_cycles;
                    self.charge(
                        self.cache_comp,
                        t,
                        t + stall_cycles.max(1),
                        de,
                        Provenance::CacheModel,
                    );
                    self.tracer.emit(|| TraceRecord::IcacheBatch {
                        at: t,
                        process: p.0,
                        fetches,
                        hits: 0,
                        misses: fetches,
                        stall_cycles,
                        energy_j: de,
                    });
                    self.anomalies.record(t, AnomalyKind::CacheBypassed { fetches });
                } else {
                    let batch = icache.access_batch(addrs);
                    stall_cycles = batch.stall_cycles;
                    self.charge(
                        self.cache_comp,
                        t,
                        t + stall_cycles.max(1),
                        batch.energy_j,
                        Provenance::CacheModel,
                    );
                    self.tracer.emit(|| TraceRecord::IcacheBatch {
                        at: t,
                        process: p.0,
                        fetches: batch.fetches,
                        hits: batch.hits,
                        misses: batch.misses,
                        stall_cycles,
                        energy_j: batch.energy_j,
                    });
                }
            }
        }

        // The component's execution phase: computation plus cache-miss
        // stalls (charged at the processor's stall power). The whole
        // window is one charge, booked under the provenance of whatever
        // produced the firing's cost.
        let detailed = source == CostSource::Detailed;
        let provenance = source.provenance(self.estimators[p.0 as usize].provenance());
        let stall_energy =
            self.estimators[p.0 as usize].wait_energy(fr.transition, stall_cycles, detailed);
        let exec_end = t + cost.cycles + stall_cycles;
        self.charge(
            self.comp_of_proc[p.0 as usize],
            t,
            exec_end,
            cost.energy_j + stall_energy,
            provenance,
        );
        self.end_time = self.end_time.max(exec_end);

        let is_sw = !self.estimators[p.0 as usize].is_hw();
        let wait = FiringWait {
            proc: p,
            transition: fr.transition,
            exec_end,
            detailed,
            is_sw,
            provenance,
            emissions: fr.execution.emitted.clone(),
        };

        // Shared-memory phase: the transactions are granted DMA block by
        // DMA block under priority arbitration; the firing completes when
        // its last block does.
        let ops: Vec<(u64, i64, bool)> = fr
            .execution
            .mem_accesses
            .iter()
            .map(|a| (a.addr, a.value, a.write))
            .collect();
        if ops.is_empty() {
            self.complete_firing(wait, exec_end);
        } else {
            if is_sw {
                // The processor owns the transfer (programmed I/O / DMA
                // set-up interleaved with computation); the RTOS keeps
                // the CPU allocated until the last block completes.
                self.cpu_free_at = u64::MAX;
            }
            // The component issues its transactions *throughout* its
            // computation, not in a burst at the end: pace the blocks
            // evenly across the execution window, so concurrent
            // components genuinely contend for the bus.
            let blocks = (ops.len() as u64).div_ceil(self.config.bus.dma_block_size as u64);
            let interval = cost.cycles / blocks.max(1);
            let req =
                self.bus
                    .enqueue_paced(self.bus_master[p.0 as usize], t, &ops, interval);
            self.bus_pending.insert(req, wait);
            self.queue.push(SimTime::from_cycles(t), Ev::BusKick);
        }
    }

    /// Routes one firing through the acceleration pipeline; a full
    /// fall-through runs the component's detailed backend.
    fn estimate(
        &mut self,
        p: ProcId,
        fr: &cfsm::FireResult,
        vars_in: &[i64],
        ev_snapshot: &HashMap<EventId, i64>,
        t: u64,
    ) -> (DetailedCost, CostSource) {
        let idx = p.0 as usize;
        let ctx = FiringCtx {
            proc: p,
            path: fr.execution.path,
            is_hw: self.estimators[idx].is_hw(),
            macro_ops: &fr.execution.macro_ops,
            now: t,
        };
        let stats_before = self.estimators[idx].gate_stats();
        let hits_before = self.estimators[idx].gate_memo_hits();
        let est = &mut self.estimators[idx];
        let inputs = FiringInputs {
            transition: fr.transition,
            vars_in,
            event_value: &|e| ev_snapshot.get(&e).copied().unwrap_or(0),
            exec: &fr.execution,
        };
        let (cost, source) =
            self.accel.estimate(&ctx, &mut self.tracer, &mut || est.run_firing(&inputs));
        // Gate-level activity behind this firing (zero when a layer
        // answered without touching the simulator; zero evaluations but
        // the stored events when the firing memo answered).
        let (evals, events) = match (stats_before, self.estimators[idx].gate_stats()) {
            (Some(before), Some(after)) => (
                after.0.saturating_sub(before.0),
                after.1.saturating_sub(before.1),
            ),
            _ => (0, 0),
        };
        let memo_hits = self.estimators[idx]
            .gate_memo_hits()
            .saturating_sub(hits_before);
        match source {
            CostSource::Detailed => self.detailed_calls += 1,
            _ => self.accelerated_calls += 1,
        }
        if evals > 0 || events > 0 || memo_hits > 0 {
            self.tracer.emit(|| TraceRecord::GateActivity {
                at: t,
                process: p.0,
                evals,
                events,
                memo_hits,
            });
        }
        (cost, source)
    }

    /// Builds the final report.
    fn report(&self) -> CoSimReport {
        let processes = self
            .soc
            .network
            .process_ids()
            .map(|p| {
                let totals = self.account.totals(self.comp_of_proc[p.0 as usize]);
                ProcessReport {
                    name: self.soc.network.cfsm(p).name().to_string(),
                    mapping: self.soc.network.mapping(p),
                    energy_j: totals.energy_j,
                    busy_cycles: totals.busy_cycles,
                    firings: self.firings_per_proc[p.0 as usize],
                }
            })
            .collect();
        CoSimReport {
            system: self.soc.name.clone(),
            processes,
            bus_energy_j: self.account.totals(self.bus_comp).energy_j,
            bus: self.bus.stats(),
            cache_energy_j: self.account.totals(self.cache_comp).energy_j,
            cache: self.icache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            total_cycles: self.end_time,
            firings: self.firings,
            detailed_calls: self.detailed_calls,
            accelerated_calls: self.accelerated_calls,
            account: self.account.clone(),
            outcome: match &self.degraded {
                Some(reason) => RunOutcome::Degraded { reason: reason.clone() },
                None => RunOutcome::Completed,
            },
            anomalies: self.anomalies.clone(),
            provenance: self.provenance.clone(),
            effectiveness: self.effectiveness(),
            power: self.power.as_ref().map(|rt| {
                let names: Vec<&str> = self
                    .soc
                    .network
                    .process_ids()
                    .map(|p| self.soc.network.cfsm(p).name())
                    .collect();
                rt.report(&names)
            }),
        }
    }

    /// Snapshots the per-technique effectiveness counters.
    fn effectiveness(&self) -> AccelEffectiveness {
        AccelEffectiveness {
            answered_by_layer: self
                .accel
                .answered_counts()
                .into_iter()
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            cache: self.accel.energy_cache().map(|c| {
                let (hits, misses) = c.hit_miss();
                let (eligible_paths, max_eligible_cv) = c.eligible_stats();
                CacheEffectiveness {
                    hits,
                    misses,
                    distinct_paths: c.distinct_paths(),
                    eligible_paths,
                    max_eligible_cv,
                    cv_bound: c.config().thresh_variance,
                }
            }),
            sampling: self.accel.sampling_stats().map(|(period, served, samples)| {
                SamplingEffectiveness {
                    period,
                    served,
                    samples,
                }
            }),
        }
    }
}
