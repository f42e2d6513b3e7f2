//! Gate-level lane scheduler: maps independent sweep units onto the
//! lanes of a wide [`SimdLaneSim`] word.
//!
//! The lockstep lane words of [`gatesim::simd`] evaluate up to
//! [`gatesim::simd::MAX_LANES`] independent Boolean streams per gate
//! visit. This module spends those lanes on *sweeps*: each lane carries
//! one independent sweep unit — a Monte-Carlo stimulus vector (seeded
//! via `detrand`) for toggle-statistics estimation, or a stuck-at
//! fault/stimulus variant for a fault-matrix sweep — and the results are
//! demuxed back into per-unit points that are **bit-identical** to
//! running each unit alone through the scalar event-driven
//! [`gatesim::Simulator`] (energy down to the float bit pattern, values,
//! toggle counters).
//!
//! The equivalence holds because the lockstep multi-lane simulator folds
//! per-lane energy in the scalar kernels' exact float order (clock term
//! first, then toggled nets ascending by net id, then flop edges), so a
//! lane never observes a different accumulation order than a solo run.
//!
//! The per-lane work around the simulator is done in dense passes.
//! Each unit keeps its own `detrand` stream, and a batch draws its
//! stimulus one cycle at a time, input-major, for 64 units at once: per
//! primary input, the toggle coin on every generator of the group in one
//! pass ([`Rng::flip_each`]), then the value coin on the lanes that hit.
//! The draws land straight in per-input lane words
//! ([`SimdLaneSim::set_input_lanes`]), so no unit's stimulus is ever
//! buffered. Inside each step the simulator charges and counts every
//! toggled net in one drain, and a finished batch is demuxed net-major
//! in one pass over the counter planes ([`SimdLaneSim::demux`]).
//!
//! The co-simulation-level counterpart, the stimulus-seed sweep
//! [`crate::explore_stimulus_seeds_parallel`], yields full per-point
//! [`crate::CoSimReport`]s with the provenance partition intact; this
//! module is the gate-level engine the bench compares against serial
//! scalar sweeps.

use detrand::{Coin, Rng};
use gatesim::{
    EnergyReport, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator,
    ValidateNetlistError,
};
use std::fmt;
use std::sync::Arc;

/// One independent gate-level sweep unit, scheduled onto one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneUnit {
    /// A Monte-Carlo stimulus vector: every primary input is driven by
    /// an independent Bernoulli stream derived from `seed`.
    MonteCarlo {
        /// Seed of the deterministic stimulus stream.
        seed: u64,
    },
    /// A stuck-at fault variant: the Monte-Carlo stimulus of `seed`,
    /// except one primary input is forced to `stuck` for the whole run.
    /// The random stream is consumed exactly as in the fault-free
    /// sibling, so a `(MonteCarlo, StuckAt)` pair with the same seed
    /// differs only by the fault — the fault-matrix diffing contract.
    StuckAt {
        /// Seed of the underlying fault-free stimulus stream.
        seed: u64,
        /// The faulted primary input.
        net: NetId,
        /// The value the input is stuck at.
        stuck: bool,
    },
}

impl LaneUnit {
    /// The stimulus seed of this unit (shared between a fault-free unit
    /// and its stuck-at variants).
    pub fn seed(&self) -> u64 {
        match *self {
            LaneUnit::MonteCarlo { seed } | LaneUnit::StuckAt { seed, .. } => seed,
        }
    }

    /// The faulted input and its stuck value, for a stuck-at unit.
    fn fault(&self) -> Option<(NetId, bool)> {
        match *self {
            LaneUnit::MonteCarlo { .. } => None,
            LaneUnit::StuckAt { net, stuck, .. } => Some((net, stuck)),
        }
    }
}

/// Sweep-wide stimulus parameters.
#[derive(Debug, Clone)]
pub struct LaneSweepConfig {
    /// Simulated cycles per unit.
    pub cycles: usize,
    /// Per-cycle probability that a primary input is re-driven (the
    /// new value is a fair coin). Low probabilities yield long
    /// quiescent stretches, in which the event-driven kernel evaluates
    /// few gates.
    pub toggle_probability: f64,
    /// Maximum units batched into one [`SimdLaneSim`] instance; clamped
    /// to `1..=`[`gatesim::simd::MAX_LANES`]. Sweeps larger than this
    /// run as multiple lockstep batches.
    pub max_lanes: usize,
}

impl Default for LaneSweepConfig {
    /// 256 cycles, 20% input activity, one full 256-lane word per batch.
    fn default() -> Self {
        LaneSweepConfig {
            cycles: 256,
            toggle_probability: 0.2,
            max_lanes: 256,
        }
    }
}

/// One demuxed per-unit result of a lane sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePoint {
    /// The sweep unit this lane carried.
    pub unit: LaneUnit,
    /// Per-cycle energy of this unit, bit-identical to a solo scalar
    /// run of the same stimulus.
    pub report: EnergyReport,
    /// Per-net toggle counts, indexed by net id.
    pub toggles: Vec<u64>,
    /// Final settled value of every net, indexed by net id.
    pub values: Vec<bool>,
}

impl LanePoint {
    /// Total energy of this unit, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_j()
    }
}

/// A whole lane-scheduled sweep: the demuxed per-unit points plus the
/// batch structure and aggregate gate-work counters.
#[derive(Debug, Clone)]
pub struct LaneSweep {
    /// Per-unit results, in `units` order.
    pub points: Vec<LanePoint>,
    /// Lockstep batches the units were packed into.
    pub batches: usize,
    /// Kernel work units summed over all batches (one multi-lane eval
    /// covers every lane of the batch).
    pub gate_evals: u64,
    /// Committed `(gate, lane, cycle)` evaluation slots over all batches
    /// (a serial sweep's scalar evaluations fill one slot each).
    pub gate_eval_slots: u64,
    /// Committed per-lane net changes over all batches (the
    /// kernel-invariant activity metric).
    pub gate_events: u64,
}

/// Why a lane sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneSweepError {
    /// The netlist failed validation.
    Netlist(ValidateNetlistError),
    /// A stuck-at unit faults a net that is not a primary input of the
    /// netlist, or no net of it at all.
    StuckAtNonInput {
        /// The unit's position in the sweep's unit list.
        unit: usize,
        /// The net the unit names.
        net: NetId,
    },
}

impl From<ValidateNetlistError> for LaneSweepError {
    fn from(e: ValidateNetlistError) -> Self {
        LaneSweepError::Netlist(e)
    }
}

impl fmt::Display for LaneSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneSweepError::Netlist(e) => write!(f, "invalid netlist: {e}"),
            LaneSweepError::StuckAtNonInput { unit, net } => {
                write!(
                    f,
                    "unit {unit} is stuck at {net}, which is not a primary input"
                )
            }
        }
    }
}

impl std::error::Error for LaneSweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LaneSweepError::Netlist(e) => Some(e),
            LaneSweepError::StuckAtNonInput { .. } => None,
        }
    }
}

/// The sweep's one stimulus generator: both sweep paths replay it, so a
/// lane and a solo run of the same unit see the identical stream.
///
/// Each unit draws from its own `detrand` stream, seeded by
/// [`LaneUnit::seed`]: per cycle and per primary input, in
/// [`Netlist::primary_inputs`] order, one Bernoulli(`toggle_probability`)
/// draw and, on a hit, one fair-coin draw for the input's new value.
/// Up to 64 units draw together, input-major: the toggle coin on every
/// generator of the group ([`Rng::flip_each`]), then the value coin on
/// the lanes that hit. That leaves each unit's own draws in the order
/// above, so the serial path draws one-unit groups. A stuck-at unit
/// makes the same draws as its fault-free sibling but never re-drives
/// its faulted input; its stuck value is forced after cycle 0's other
/// forcings.
struct Stimulus {
    /// The primary inputs, listed once per sweep.
    inputs: Vec<NetId>,
    toggle: Coin,
    fair: Coin,
}

/// Up to 64 units drawing together, unit `j` in lane bit `j`.
struct Group {
    rngs: Vec<Rng>,
    /// Per input, the lanes stuck at it: drawn for, never re-driven.
    stuck: Vec<u64>,
}

impl Stimulus {
    fn new(netlist: &Netlist, config: &LaneSweepConfig) -> Self {
        Stimulus {
            inputs: netlist.primary_inputs(),
            toggle: Coin::new(config.toggle_probability),
            fair: Coin::new(0.5),
        }
    }

    /// Each unit's faulted input as a position in [`Self::inputs`]
    /// (`None` for a Monte-Carlo unit).
    fn faults(&self, units: &[LaneUnit]) -> Result<Vec<Option<usize>>, LaneSweepError> {
        units
            .iter()
            .enumerate()
            .map(|(unit, u)| match u.fault() {
                None => Ok(None),
                Some((net, _)) => self
                    .inputs
                    .iter()
                    .position(|&p| p == net)
                    .map(Some)
                    .ok_or(LaneSweepError::StuckAtNonInput { unit, net }),
            })
            .collect()
    }

    /// The group of `units` (at most 64), whose faulted inputs are
    /// `faults`.
    fn group(&self, units: &[LaneUnit], faults: &[Option<usize>]) -> Group {
        let mut stuck = vec![0u64; self.inputs.len()];
        for (j, k) in faults.iter().enumerate() {
            if let Some(k) = *k {
                stuck[k] |= 1 << j;
            }
        }
        Group {
            rngs: units.iter().map(|u| Rng::new(u.seed())).collect(),
            stuck,
        }
    }

    /// Draws the next cycle of `group`, lane word `g` of `words`: bit
    /// `j` of `mask[k * words + g]` is set if lane `j` re-drives
    /// `inputs[k]`, and the same bit of `value[k * words + g]` holds its
    /// new value.
    fn cycle(
        &self,
        group: &mut Group,
        (g, words): (usize, usize),
        mask: &mut [u64],
        value: &mut [u64],
    ) {
        for (k, &stuck) in group.stuck.iter().enumerate() {
            let hits = Rng::flip_each(&mut group.rngs, self.toggle);
            let (mut v, mut h) = (0u64, hits);
            while h != 0 {
                let j = h.trailing_zeros();
                h &= h.wrapping_sub(1);
                v |= u64::from(group.rngs[j as usize].flip(self.fair)) << j;
            }
            mask[k * words + g] = hits & !stuck;
            value[k * words + g] = v;
        }
    }
}

/// Runs the sweep units lane-scheduled: packed into wide lockstep
/// batches of up to `config.max_lanes` lanes each, one gate visit
/// evaluating every lane of a batch as a single word op.
///
/// Results are demuxed back per unit and are bit-identical to
/// [`run_lane_sweep_serial`] (and hence to solo scalar runs) — same
/// per-cycle energy floats, values, and toggle counters.
///
/// # Errors
///
/// Returns [`LaneSweepError::StuckAtNonInput`] if a stuck-at unit names
/// a net that is not a primary input (checked for every unit before
/// anything is simulated), and [`LaneSweepError::Netlist`] if the
/// netlist fails validation.
pub fn run_lane_sweep(
    netlist: &Arc<Netlist>,
    power: &PowerConfig,
    units: &[LaneUnit],
    config: &LaneSweepConfig,
) -> Result<LaneSweep, LaneSweepError> {
    let max = config.max_lanes.clamp(1, gatesim::simd::MAX_LANES);
    let stimulus = Stimulus::new(netlist, config);
    let faults = stimulus.faults(units)?;
    let mut sweep = LaneSweep {
        points: Vec::with_capacity(units.len()),
        batches: 0,
        gate_evals: 0,
        gate_eval_slots: 0,
        gate_events: 0,
    };
    for (chunk, faults) in units.chunks(max).zip(faults.chunks(max)) {
        let mut sim = SimdLaneSim::new(Arc::clone(netlist), power.clone(), chunk.len())?;
        // Each cycle's draws land straight in per-input lane words:
        // `mask` marks the lanes re-driving an input, `value` their
        // new values, one `words`-long row per input.
        let mut groups: Vec<Group> = chunk
            .chunks(64)
            .zip(faults.chunks(64))
            .map(|(units, faults)| stimulus.group(units, faults))
            .collect();
        let words = groups.len();
        let mut mask = vec![0u64; stimulus.inputs.len() * words];
        let mut value = vec![0u64; stimulus.inputs.len() * words];
        for cycle in 0..config.cycles {
            for (g, group) in groups.iter_mut().enumerate() {
                stimulus.cycle(group, (g, words), &mut mask, &mut value);
            }
            for (k, &net) in stimulus.inputs.iter().enumerate() {
                let row = k * words..(k + 1) * words;
                sim.set_input_lanes(net, &mask[row.clone()], &value[row]);
            }
            if cycle == 0 {
                for (lane, unit) in chunk.iter().enumerate() {
                    if let Some((net, stuck)) = unit.fault() {
                        sim.set_input(lane, net, stuck);
                    }
                }
            }
            sim.step();
        }
        let (toggles, values) = sim.demux();
        for (lane, ((unit, toggles), values)) in chunk.iter().zip(toggles).zip(values).enumerate() {
            sweep.points.push(LanePoint {
                unit: unit.clone(),
                report: sim.report(lane).clone(),
                toggles,
                values,
            });
        }
        sweep.batches += 1;
        sweep.gate_evals += sim.gate_evals();
        sweep.gate_eval_slots += sim.gate_eval_slots();
        sweep.gate_events += sim.gate_events();
    }
    Ok(sweep)
}

/// The serial reference: every unit run alone through the scalar
/// event-driven kernel, in `units` order. Bit-identical to
/// [`run_lane_sweep`]; tests use it as that sweep's equivalence
/// baseline.
///
/// # Errors
///
/// As [`run_lane_sweep`]: [`LaneSweepError::StuckAtNonInput`] for a
/// stuck-at unit on a net that is not a primary input, checked for
/// every unit first, and [`LaneSweepError::Netlist`] if the netlist
/// fails validation.
pub fn run_lane_sweep_serial(
    netlist: &Arc<Netlist>,
    power: &PowerConfig,
    units: &[LaneUnit],
    config: &LaneSweepConfig,
) -> Result<LaneSweep, LaneSweepError> {
    let stimulus = Stimulus::new(netlist, config);
    let faults = stimulus.faults(units)?;
    let mut sweep = LaneSweep {
        points: Vec::with_capacity(units.len()),
        batches: units.len(),
        gate_evals: 0,
        gate_eval_slots: 0,
        gate_events: 0,
    };
    let mut mask = vec![0u64; stimulus.inputs.len()];
    let mut value = vec![0u64; stimulus.inputs.len()];
    for (index, unit) in units.iter().enumerate() {
        let mut sim = Simulator::with_kernel(
            Arc::clone(netlist),
            power.clone(),
            SimKernel::EventDriven,
        )?;
        let mut group = stimulus.group(std::slice::from_ref(unit), &faults[index..=index]);
        for cycle in 0..config.cycles {
            stimulus.cycle(&mut group, (0, 1), &mut mask, &mut value);
            for ((&net, &m), &v) in stimulus.inputs.iter().zip(&mask).zip(&value) {
                if m & 1 == 1 {
                    sim.set_input(net, v & 1 == 1);
                }
            }
            if cycle == 0 {
                if let Some((net, stuck)) = unit.fault() {
                    sim.set_input(net, stuck);
                }
            }
            sim.step();
        }
        sweep.gate_evals += sim.gate_evals();
        sweep.gate_eval_slots += sim.gate_evals();
        sweep.gate_events += sim.gate_events();
        let nets = (0..netlist.gate_count()).map(|i| NetId(i as u32));
        sweep.points.push(LanePoint {
            unit: unit.clone(),
            report: sim.report().clone(),
            toggles: nets.clone().map(|net| sim.toggle_count(net)).collect(),
            values: nets.map(|net| sim.value(net)).collect(),
        });
    }
    Ok(sweep)
}

/// Builds the unit list of a stuck-at fault-matrix sweep: the
/// fault-free Monte-Carlo unit first, then every primary input stuck at
/// 0 and at 1, all sharing one stimulus seed so every column differs
/// from the fault-free baseline only by its fault.
pub fn fault_matrix_units(netlist: &Netlist, seed: u64) -> Vec<LaneUnit> {
    let mut units = vec![LaneUnit::MonteCarlo { seed }];
    for &net in &netlist.primary_inputs() {
        for stuck in [false, true] {
            units.push(LaneUnit::StuckAt { seed, net, stuck });
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatesim::GateKind;

    fn power() -> PowerConfig {
        PowerConfig::date2000_defaults()
    }

    /// A small sequential netlist: XOR front end into a 3-flop shift
    /// chain with a reconvergent AND observer.
    fn netlist() -> Arc<Netlist> {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let x = n.gate(GateKind::Xor, vec![a, b]);
        let y = n.gate(GateKind::Or, vec![x, c]);
        let mut q = n.dff(y, false);
        for _ in 0..2 {
            q = n.dff(q, false);
        }
        let out = n.gate(GateKind::And, vec![q, x]);
        n.mark_output("out", out);
        Arc::new(n)
    }

    #[test]
    fn lane_sweep_is_bitwise_equal_to_solo_scalar_runs() {
        let n = netlist();
        // Straddle a chunk seam: 5 units at max_lanes 3 → batches of
        // 3 + 2, and the chunking must not leak into any result.
        let units: Vec<LaneUnit> = (0..5).map(|s| LaneUnit::MonteCarlo { seed: s }).collect();
        let config = LaneSweepConfig {
            cycles: 40,
            toggle_probability: 0.3,
            max_lanes: 3,
        };
        let lanes = run_lane_sweep(&n, &power(), &units, &config).expect("valid");
        let serial = run_lane_sweep_serial(&n, &power(), &units, &config).expect("valid");
        assert_eq!(lanes.batches, 2);
        assert_eq!(lanes.points.len(), 5);
        for (l, s) in lanes.points.iter().zip(&serial.points) {
            assert_eq!(l.unit, s.unit);
            assert_eq!(l.toggles, s.toggles, "unit {:?}", l.unit);
            assert_eq!(l.values, s.values, "unit {:?}", l.unit);
            let lane_bits: Vec<u64> = l.report.per_cycle_j.iter().map(|e| e.to_bits()).collect();
            let solo_bits: Vec<u64> = s.report.per_cycle_j.iter().map(|e| e.to_bits()).collect();
            assert_eq!(lane_bits, solo_bits, "unit {:?} energy", l.unit);
        }
        // The activity metric is kernel- and schedule-invariant.
        assert_eq!(lanes.gate_events, serial.gate_events);
        // One lane eval covers every lane of its batch, so committed
        // slots dominate evals on the lane path.
        assert!(lanes.gate_eval_slots > lanes.gate_evals);
    }

    #[test]
    fn stuck_at_variants_differ_only_by_the_fault() {
        let n = netlist();
        let inputs = n.primary_inputs();
        let units = fault_matrix_units(&n, 7);
        assert_eq!(units.len(), 1 + 2 * inputs.len());
        let config = LaneSweepConfig {
            cycles: 30,
            ..LaneSweepConfig::default()
        };
        let sweep = run_lane_sweep(&n, &power(), &units, &config).expect("valid");
        let baseline = &sweep.points[0];
        // A stuck input never toggles after its forcing settles, and the
        // variant's stimulus on every *other* input is the baseline's.
        for point in &sweep.points[1..] {
            let LaneUnit::StuckAt { net, stuck, .. } = point.unit else {
                unreachable!("fault_matrix_units layout")
            };
            assert_eq!(point.values[net.0 as usize], stuck);
            assert!(point.toggles[net.0 as usize] <= 1, "one settle toggle at most");
            // The faulted run is a genuine variant of the baseline: same
            // cycle count, and the serial path reproduces it bitwise.
            assert_eq!(point.report.per_cycle_j.len(), baseline.report.per_cycle_j.len());
        }
        let serial = run_lane_sweep_serial(&n, &power(), &units, &config).expect("valid");
        assert_eq!(sweep.points, serial.points);
    }

    #[test]
    fn a_stuck_at_unit_off_the_primary_inputs_is_a_typed_error_on_both_paths() {
        let n = netlist();
        let gate = NetId(3); // the XOR, not an input
        assert!(!n.primary_inputs().contains(&gate));
        let config = LaneSweepConfig {
            cycles: 8,
            max_lanes: 1,
            ..LaneSweepConfig::default()
        };
        for net in [gate, NetId(n.gate_count() as u32 + 7)] {
            // The bad unit sits in the second one-lane batch, after a
            // valid unit the sweep would otherwise run first.
            let units = [
                LaneUnit::MonteCarlo { seed: 1 },
                LaneUnit::StuckAt {
                    seed: 1,
                    net,
                    stuck: true,
                },
            ];
            let want = LaneSweepError::StuckAtNonInput { unit: 1, net };
            let lanes = run_lane_sweep(&n, &power(), &units, &config).map(|_| ());
            let serial = run_lane_sweep_serial(&n, &power(), &units, &config).map(|_| ());
            assert_eq!(lanes, Err(want.clone()), "lane path, {net}");
            assert_eq!(serial, Err(want.clone()), "serial path, {net}");
            assert!(want.to_string().contains("not a primary input"), "{want}");
        }
    }
}
