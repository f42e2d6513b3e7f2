//! Component power estimators — the pluggable lower-level simulators.
//!
//! Each process of the network gets one estimator according to its
//! mapping: a gate-level [`HwCfsm`](gatesim::HwCfsm) wrapped in
//! [`HwEstimator`] for hardware, an enhanced ISS
//! [`SwCfsm`](iss::SwCfsm) wrapped in [`SwEstimator`] for software. The
//! co-simulation master drives them through the object-safe
//! [`PowerEstimator`] trait — the seam third-party backends plug into —
//! and, in debug builds, the detailed backends cross-check their
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

/// A component's power estimator — the pluggable backend seam.
///
/// The master owns one `Box<dyn PowerEstimator>` per process and knows
/// nothing about how costs are produced: gate-level simulation
/// ([`HwEstimator`]), instruction-set simulation ([`SwEstimator`]), or
/// anything a downstream crate implements.
pub trait PowerEstimator: fmt::Debug {
    /// Whether this estimator models a hardware-mapped component.
    fn is_hw(&self) -> bool;

    /// Prices one firing: `(cycles, energy)` of the transition's
    /// execution phase.
    fn run_firing(&mut self, inputs: &FiringInputs<'_>) -> DetailedCost;

    /// Energy of `cycles` of bus-wait idling, joules.
    ///
    /// In `detailed` mode a backend may actually step its model through
    /// the wait (the gate-level backend steps its netlist); when an
    /// acceleration technique served the firing, an analytic charge is
    /// used instead (the gate-level backend: the clock tree per cycle).
    fn wait_energy(&mut self, transition: TransitionId, cycles: u64, detailed: bool) -> f64;

    /// For backends with a program layout: the instruction-fetch
    /// addresses of one behavioral execution, used by the master to
    /// drive the cache simulator. Defaults to `None` (no fetch stream).
    fn ifetch_addrs(&self, transition: TransitionId, exec: &Execution) -> Option<Vec<u64>> {
        let _ = (transition, exec);
        None
    }

    /// Functional cross-check helper: whether `got` variables match the
    /// behavioral `want`, modulo the backend's value representation.
    /// Defaults to exact equality.
    fn vars_agree(&self, got: &[i64], want: &[i64]) -> bool {
        got == want
    }

    /// Cumulative gate-level activity counters
    /// `(gate_evals, gate_events)` of the backend's simulator, when it
    /// has one. The master diffs this around each detailed firing to
    /// surface the gate kernel's work through the trace layer.
    /// `gate_evals` counts kernel work units actually performed: it
    /// varies by selected kernel (the oblivious one evaluates every
    /// gate every cycle), and a firing the exact firing memo answered adds
    /// none. `gate_events` counts committed per-cycle output changes
    /// and is kernel- and memo-invariant (a memo hit adds the stored
    /// firing's count). Defaults to `None` (no gate-level model).
    fn gate_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Cumulative count of firings the backend's exact firing memo
    /// answered without simulating (see [`gatesim::FiringMemoScope`]),
    /// diffed by the master like [`PowerEstimator::gate_stats`].
    /// Defaults to 0 (no memo).
    fn gate_memo_hits(&self) -> u64 {
        0
    }
}

/// Gate-level simulation of the synthesized FSMD.
#[derive(Debug)]
pub struct HwEstimator {
    hw: Box<HwCfsm>,
}

impl HwEstimator {
    /// Synthesizes the process's CFSM into a gate-level estimator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildEstimatorError::Synth`] when an operator has no
    /// structural implementation.
    pub fn build(
        network: &Network,
        proc: ProcId,
        config: &CoSimConfig,
    ) -> Result<Self, BuildEstimatorError> {
        let machine = network.cfsm(proc);
        let hw = HwCfsm::synthesize(machine, &config.synth, &config.hw_power)
            .map_err(|e| BuildEstimatorError::Synth(machine.name().to_string(), e))?;
        Ok(HwEstimator { hw: Box::new(hw) })
    }
}

impl PowerEstimator for HwEstimator {
    fn is_hw(&self) -> bool {
        true
    }

    fn run_firing(&mut self, inputs: &FiringInputs<'_>) -> DetailedCost {
        let reads = inputs.exec.read_values();
        let run = self
            .hw
            .transition_mut(inputs.transition)
            .run(inputs.vars_in, inputs.event_value, &reads);
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

    fn wait_energy(&mut self, transition: TransitionId, cycles: u64, detailed: bool) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let t = self.hw.transition_mut(transition);
        if detailed {
            // Step the netlist through the wait. The first held cycle
            // after a firing still toggles nets (the controller leaves
            // `done`), so this exceeds the analytic clock-tree charge
            // below by those toggles; the rest of the wait charges the
            // clock tree alone.
            t.idle_step(cycles)
        } else {
            t.idle_energy_per_cycle_j() * cycles as f64
        }
    }

    fn vars_agree(&self, got: &[i64], want: &[i64]) -> bool {
        got.iter()
            .zip(want)
            .all(|(&g, &w)| self.hw.mask_value(g) == self.hw.mask_value(w))
    }

    fn gate_stats(&self) -> Option<(u64, u64)> {
        Some(self.hw.gate_stats())
    }

    fn gate_memo_hits(&self) -> u64 {
        self.hw.memo_hits()
    }
}

/// Enhanced instruction-set simulation of the compiled program.
#[derive(Debug)]
pub struct SwEstimator {
    sw: Box<SwCfsm>,
}

impl SwEstimator {
    /// Compiles the process's CFSM for the instruction-set simulator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildEstimatorError::Codegen`] when compilation fails.
    pub fn build(
        network: &Network,
        proc: ProcId,
        config: &CoSimConfig,
    ) -> Result<Self, BuildEstimatorError> {
        let machine = network.cfsm(proc);
        let power = PowerModel::of_kind(config.sw_power);
        let sw = SwCfsm::new(machine, power, &|e| {
            network
                .events()
                .get(e.0 as usize)
                .map(|d| d.carries_value)
                .unwrap_or(false)
        })
        .map_err(|e| BuildEstimatorError::Codegen(machine.name().to_string(), e))?;
        Ok(SwEstimator { sw: Box::new(sw) })
    }
}

impl PowerEstimator for SwEstimator {
    fn is_hw(&self) -> bool {
        false
    }

    fn run_firing(&mut self, inputs: &FiringInputs<'_>) -> DetailedCost {
        let reads = inputs.exec.read_values();
        let run =
            self.sw
                .run_transition(inputs.transition, inputs.vars_in, inputs.event_value, &reads);
        debug_assert_eq!(
            run.emitted, inputs.exec.emitted,
            "ISS and behavioral emissions diverged"
        );
        DetailedCost {
            cycles: run.cycles + run.stalls,
            energy_j: run.energy_j,
        }
    }

    fn wait_energy(&mut self, _transition: TransitionId, cycles: u64, _detailed: bool) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.sw.cpu_mut().power_model().stall_energy_j() * cycles as f64
    }

    fn ifetch_addrs(&self, transition: TransitionId, exec: &Execution) -> Option<Vec<u64>> {
        let p = self.sw.program();
        let tc = &p.transitions[transition.0 as usize];
        let mut addrs: Vec<u64> = p.slot_addrs(tc.prologue_slots).collect();
        for b in &exec.trace {
            addrs.extend(p.slot_addrs(tc.block_slots[b.0 as usize]));
        }
        addrs.extend(p.slot_addrs(tc.epilogue_slots));
        Some(addrs)
    }
}

/// Builds the estimator matching the process's mapping.
///
/// # Errors
///
/// Returns a [`BuildEstimatorError`] naming the process on failure.
pub fn build_estimator(
    network: &Network,
    proc: ProcId,
    config: &CoSimConfig,
) -> Result<Box<dyn PowerEstimator>, BuildEstimatorError> {
    match network.mapping(proc) {
        Implementation::Hw => Ok(Box::new(HwEstimator::build(network, proc, config)?)),
        Implementation::Sw => Ok(Box::new(SwEstimator::build(network, proc, config)?)),
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
    fn vars_agree_masks_hw_width() {
        let cfg = CoSimConfig::date2000_defaults();
        assert_eq!(cfg.synth.width, 16, "default datapath width");
        let (net, p) = simple_network(Implementation::Hw);
        let est = build_estimator(&net, p, &cfg).expect("builds");
        // 0x1_0005 masked to 16 bits equals 0x0005.
        assert!(est.vars_agree(&[0x0005], &[0x1_0005]));
        let (net, p) = simple_network(Implementation::Sw);
        let est = build_estimator(&net, p, &cfg).expect("builds");
        assert!(!est.vars_agree(&[0x0005], &[0x1_0005]));
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
