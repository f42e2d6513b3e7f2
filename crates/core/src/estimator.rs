//! Component power estimators — the lower-level simulators.
//!
//! Each process of the network gets one [`Estimator`] according to its
//! mapping: gate-level simulation of a synthesized
//! [`HwCfsm`](gatesim::HwCfsm) for hardware, an enhanced ISS running a
//! compiled [`SwCfsm`](iss::SwCfsm) for software — the two kinds the
//! paper's master drives (§3). In debug builds both cross-check their
//! functional results against the behavioral execution: the two engines
//! must agree on the path taken.

use crate::config::CoSimConfig;
use cfsm::{EventId, Execution, Implementation, Network, ProcId, TransitionId};
use gatesim::{HwCfsm, SynthError};
use iss::codegen::CodegenError;
use iss::{PowerModel, SwCfsm};
use std::fmt;

/// Errors from constructing a co-simulation: building estimators,
/// validating system parameters, or resolving a fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildEstimatorError {
    /// Hardware synthesis failed for a process.
    Synth(String, SynthError),
    /// Software compilation failed for a process.
    Codegen(String, CodegenError),
    /// The SoC description's priority vector does not have one entry per
    /// process.
    PriorityCount {
        /// Number of processes in the network.
        expected: usize,
        /// Number of priorities supplied.
        got: usize,
    },
    /// The requested workload is empty (nothing would ever fire).
    EmptyWorkload(String),
    /// A parameter is outside its documented domain.
    InvalidParams(String),
    /// CFSM machine or network construction failed inside a system
    /// builder (an internal bug, reported instead of panicking).
    Construction(String),
    /// Pre-simulation verification found error-severity liveness
    /// defects (orphan triggers, wait cycles); the full report carries
    /// every finding, warnings included.
    Unverifiable(socverify::VerifyReport),
}

impl fmt::Display for BuildEstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildEstimatorError::Synth(p, e) => write!(f, "synthesizing `{p}`: {e}"),
            BuildEstimatorError::Codegen(p, e) => write!(f, "compiling `{p}`: {e}"),
            BuildEstimatorError::PriorityCount { expected, got } => write!(
                f,
                "one priority per process required: {expected} processes, {got} priorities"
            ),
            BuildEstimatorError::EmptyWorkload(what) => write!(f, "empty workload: {what}"),
            BuildEstimatorError::InvalidParams(what) => write!(f, "invalid parameters: {what}"),
            BuildEstimatorError::Construction(what) => {
                write!(f, "system construction failed: {what}")
            }
            BuildEstimatorError::Unverifiable(report) => {
                write!(f, "spec failed pre-simulation verification: {report}")
            }
        }
    }
}

impl std::error::Error for BuildEstimatorError {}

/// What a detailed simulation of one firing cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedCost {
    /// Execution cycles (excluding bus/cache effects, which the master
    /// adds).
    pub cycles: u64,
    /// Energy, joules.
    pub energy_j: f64,
}

/// Everything a backend needs to price one firing.
///
/// `vars_in` / `event_value` are the pre-firing behavioral state; `exec`
/// is the behavioral execution whose path the estimator must reproduce
/// (its recorded read values feed the replay).
pub struct FiringInputs<'a> {
    /// Which transition fired.
    pub transition: TransitionId,
    /// Variable values before the firing.
    pub vars_in: &'a [i64],
    /// Input-event values visible at the firing.
    pub event_value: &'a dyn Fn(EventId) -> i64,
    /// The behavioral execution to replay.
    pub exec: &'a Execution,
}

impl fmt::Debug for FiringInputs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FiringInputs")
            .field("transition", &self.transition)
            .field("vars_in", &self.vars_in)
            .finish_non_exhaustive()
    }
}

/// A component's power estimator: gate-level simulation of the
/// synthesized FSMD for a hardware-mapped process, enhanced
/// instruction-set simulation of the compiled program for a
/// software-mapped one. The master owns one per process and prices
/// every firing no acceleration technique answered through it.
#[derive(Debug)]
pub enum Estimator {
    /// Gate-level simulation of the synthesized FSMD.
    Hw(HwCfsm),
    /// Enhanced instruction-set simulation of the compiled program
    /// (boxed: the simulator's state is some 1.7 KB).
    Sw(Box<SwCfsm>),
}

impl Estimator {
    /// Whether this estimator models a hardware-mapped component.
    pub fn is_hw(&self) -> bool {
        matches!(self, Estimator::Hw(_))
    }

    /// Prices one firing: `(cycles, energy)` of the transition's
    /// execution phase.
    pub fn run_firing(&mut self, inputs: &FiringInputs<'_>) -> DetailedCost {
        let reads = inputs.exec.read_values();
        match self {
            Estimator::Hw(hw) => {
                let run = hw.transition_mut(inputs.transition).run(
                    inputs.vars_in,
                    inputs.event_value,
                    &reads,
                );
                debug_assert_eq!(
                    run.emitted.len(),
                    inputs.exec.emitted.len(),
                    "gate-level and behavioral emission counts diverged"
                );
                debug_assert_eq!(
                    run.mem_ops.len(),
                    inputs.exec.mem_accesses.len(),
                    "gate-level and behavioral memory traffic diverged"
                );
                DetailedCost {
                    cycles: run.cycles,
                    energy_j: run.energy_j,
                }
            }
            Estimator::Sw(sw) => {
                let run = sw.run_transition(
                    inputs.transition,
                    inputs.vars_in,
                    inputs.event_value,
                    &reads,
                );
                debug_assert_eq!(
                    run.emitted, inputs.exec.emitted,
                    "ISS and behavioral emissions diverged"
                );
                DetailedCost {
                    cycles: run.cycles + run.stalls,
                    energy_j: run.energy_j,
                }
            }
        }
    }

    /// Energy of `cycles` of bus-wait idling, joules.
    ///
    /// The processor stalls at its stall power. A hardware component
    /// that ran in `detailed` mode steps its netlist through the wait;
    /// when an acceleration technique served the firing, the clock tree
    /// is charged analytically per cycle instead.
    pub fn wait_energy(&mut self, transition: TransitionId, cycles: u64, detailed: bool) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        match self {
            Estimator::Hw(hw) => {
                let t = hw.transition_mut(transition);
                if detailed {
                    // The first held cycle after a firing still toggles
                    // nets (the controller leaves `done`), so this
                    // exceeds the analytic clock-tree charge below by
                    // those toggles; the rest of the wait charges the
                    // clock tree alone.
                    t.idle_step(cycles)
                } else {
                    t.idle_energy_per_cycle_j() * cycles as f64
                }
            }
            Estimator::Sw(sw) => sw.cpu_mut().power_model().stall_energy_j() * cycles as f64,
        }
    }

    /// The instruction-fetch addresses of one behavioral execution of a
    /// software component, which drive the master's cache simulator;
    /// `None` for hardware.
    pub fn ifetch_addrs(&self, transition: TransitionId, exec: &Execution) -> Option<Vec<u64>> {
        let Estimator::Sw(sw) = self else {
            return None;
        };
        let p = sw.program();
        let tc = &p.transitions[transition.0 as usize];
        let mut addrs: Vec<u64> = p.slot_addrs(tc.prologue_slots).collect();
        for b in &exec.trace {
            addrs.extend(p.slot_addrs(tc.block_slots[b.0 as usize]));
        }
        addrs.extend(p.slot_addrs(tc.epilogue_slots));
        Some(addrs)
    }

    /// Cumulative gate-level activity counters
    /// `(gate_evals, gate_events)` of a hardware component's simulator;
    /// `None` for software. The master diffs this around each detailed
    /// firing to surface the gate kernel's work through the trace layer.
    /// `gate_evals` counts kernel work units actually performed: it
    /// varies by selected kernel (the oblivious one evaluates every
    /// gate every cycle), and a firing the exact firing memo answered adds
    /// none. `gate_events` counts committed per-cycle output changes
    /// and is kernel- and memo-invariant (a memo hit adds the stored
    /// firing's count).
    pub fn gate_stats(&self) -> Option<(u64, u64)> {
        match self {
            Estimator::Hw(hw) => Some(hw.gate_stats()),
            Estimator::Sw(_) => None,
        }
    }

    /// Cumulative count of firings a hardware component's exact firing
    /// memo answered without simulating (see
    /// [`gatesim::FiringMemoScope`]), diffed by the master like
    /// [`Estimator::gate_stats`]; 0 for software.
    pub fn gate_memo_hits(&self) -> u64 {
        match self {
            Estimator::Hw(hw) => hw.memo_hits(),
            Estimator::Sw(_) => 0,
        }
    }
}

/// Builds the estimator matching the process's mapping: synthesizes a
/// hardware process's CFSM to gates, compiles a software process's CFSM
/// for the instruction-set simulator.
///
/// # Errors
///
/// Returns [`BuildEstimatorError::Synth`] when an operator has no
/// structural implementation, or [`BuildEstimatorError::Codegen`] when
/// compilation fails; both name the process.
pub fn build_estimator(
    network: &Network,
    proc: ProcId,
    config: &CoSimConfig,
) -> Result<Estimator, BuildEstimatorError> {
    let machine = network.cfsm(proc);
    let name = || machine.name().to_string();
    match network.mapping(proc) {
        Implementation::Hw => HwCfsm::synthesize(machine, &config.synth, &config.hw_power)
            .map(Estimator::Hw)
            .map_err(|e| BuildEstimatorError::Synth(name(), e)),
        Implementation::Sw => {
            let carries_value = |e: EventId| {
                network
                    .events()
                    .get(e.0 as usize)
                    .map(|d| d.carries_value)
                    .unwrap_or(false)
            };
            SwCfsm::new(
                machine,
                PowerModel::of_kind(config.sw_power),
                &carries_value,
            )
            .map(|sw| Estimator::Sw(Box::new(sw)))
            .map_err(|e| BuildEstimatorError::Codegen(name(), e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::{Cfg, Cfsm, EventDef, EventOccurrence, Expr, Stmt};

    fn simple_network(mapping: Implementation) -> (Network, ProcId) {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let out = nb.event(EventDef::valued("OUT"));
        let mut mb = Cfsm::builder("p");
        let s = mb.state("s");
        let v = mb.var("v", 0);
        mb.transition(
            s,
            vec![go],
            None,
            Cfg::straight_line(vec![
                Stmt::Assign {
                    var: v,
                    expr: Expr::add(Expr::Var(v), Expr::Const(5)),
                },
                Stmt::Emit {
                    event: out,
                    value: Some(Expr::Var(v)),
                },
            ]),
            s,
        );
        let p = nb.process(mb.finish().expect("valid machine"), mapping);
        (nb.finish().expect("valid network"), p)
    }

    fn fire_once(net: &Network, p: ProcId) -> (Vec<i64>, Execution) {
        let mut st = net.spawn();
        net.broadcast(
            &mut st,
            EventOccurrence::pure(net.event_by_name("GO").expect("GO")),
        );
        let vars_in = st.runtime(p).vars().to_vec();
        let fr = net.fire(&mut st, p).expect("fires");
        (vars_in, fr.execution)
    }

    #[test]
    fn builds_hw_and_sw() {
        let cfg = CoSimConfig::date2000_defaults();
        let (net, p) = simple_network(Implementation::Hw);
        assert!(build_estimator(&net, p, &cfg).expect("hw builds").is_hw());
        let (net, p) = simple_network(Implementation::Sw);
        assert!(!build_estimator(&net, p, &cfg).expect("sw builds").is_hw());
    }

    #[test]
    fn detailed_backends_report_positive_costs() {
        let cfg = CoSimConfig::date2000_defaults();
        for mapping in [Implementation::Hw, Implementation::Sw] {
            let (net, p) = simple_network(mapping);
            let mut est = build_estimator(&net, p, &cfg).expect("builds");
            let (vars_in, exec) = fire_once(&net, p);
            let cost = est.run_firing(&FiringInputs {
                transition: TransitionId(0),
                vars_in: &vars_in,
                event_value: &|_| 0,
                exec: &exec,
            });
            assert!(cost.cycles > 0, "{mapping} cycles");
            assert!(cost.energy_j > 0.0, "{mapping} energy");
        }
    }

    #[test]
    fn sw_exposes_ifetch_trace_hw_does_not() {
        let cfg = CoSimConfig::date2000_defaults();
        let (net, p) = simple_network(Implementation::Sw);
        let est = build_estimator(&net, p, &cfg).expect("builds");
        let (_, exec) = fire_once(&net, p);
        let addrs = est.ifetch_addrs(TransitionId(0), &exec).expect("SW trace");
        assert!(!addrs.is_empty());
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "monotone layout");

        let (net, p) = simple_network(Implementation::Hw);
        let est = build_estimator(&net, p, &cfg).expect("builds");
        assert!(est.ifetch_addrs(TransitionId(0), &exec).is_none());
    }

    #[test]
    fn division_in_hw_mapping_fails_to_build() {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let mut mb = Cfsm::builder("divider");
        let s = mb.state("s");
        let v = mb.var("v", 0);
        mb.transition(
            s,
            vec![go],
            None,
            Cfg::straight_line(vec![Stmt::Assign {
                var: v,
                expr: Expr::bin(cfsm::BinOp::Div, Expr::Var(v), Expr::Const(3)),
            }]),
            s,
        );
        let p = nb.process(mb.finish().expect("valid machine"), Implementation::Hw);
        let net = nb.finish().expect("valid network");
        let err = build_estimator(&net, p, &CoSimConfig::date2000_defaults());
        assert!(matches!(err, Err(BuildEstimatorError::Synth(_, _))));
    }
}
