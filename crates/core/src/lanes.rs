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
//! The per-lane work around the simulator is done a word at a time.
//! Each unit's stimulus is drawn one cycle at a time from its own
//! `detrand` stream straight into per-input lane words
//! ([`SimdLaneSim::set_input_lanes`]), so no unit's stimulus is ever
//! buffered, and a finished batch is demuxed net-major in one pass over
//! the counter planes ([`SimdLaneSim::demux`]).
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

/// The sweep's one stimulus generator: both sweep paths replay it, so a
/// lane and a solo run of the same unit see the identical stream.
///
/// Each unit draws from its own `detrand` stream, seeded by
/// [`LaneUnit::seed`] and advanced one cycle at a time: per primary
/// input, in [`Netlist::primary_inputs`] order, one
/// Bernoulli(`toggle_probability`) draw and, on a hit, one fair-coin draw
/// for the input's new value. A stuck-at unit makes the same draws as
/// its fault-free sibling but never re-drives its faulted input; its
/// stuck value is forced after cycle 0's other forcings.
struct Stimulus {
    /// The primary inputs, listed once per sweep.
    inputs: Vec<NetId>,
    toggle: Coin,
    fair: Coin,
}

/// One unit's place in its stimulus stream.
struct UnitStream {
    rng: Rng,
    /// Position of a stuck-at unit's faulted input in
    /// [`Stimulus::inputs`]: drawn for, never forced.
    skip: Option<usize>,
}

impl Stimulus {
    fn new(netlist: &Netlist, config: &LaneSweepConfig) -> Self {
        Stimulus {
            inputs: netlist.primary_inputs(),
            toggle: Coin::new(config.toggle_probability),
            fair: Coin::new(0.5),
        }
    }

    fn stream(&self, unit: &LaneUnit) -> UnitStream {
        UnitStream {
            rng: Rng::new(unit.seed()),
            skip: unit
                .fault()
                .and_then(|(net, _)| self.inputs.iter().position(|&p| p == net)),
        }
    }

    /// Draws the next cycle of `stream`, calling `force(k, v)` for each
    /// input `inputs[k]` it re-drives to `v`, in input order.
    #[inline]
    fn cycle(&self, stream: &mut UnitStream, mut force: impl FnMut(usize, bool)) {
        for k in 0..self.inputs.len() {
            if stream.rng.flip(self.toggle) {
                let v = stream.rng.flip(self.fair);
                if stream.skip != Some(k) {
                    force(k, v);
                }
            }
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
/// Returns [`ValidateNetlistError`] if the netlist fails validation.
pub fn run_lane_sweep(
    netlist: &Arc<Netlist>,
    power: &PowerConfig,
    units: &[LaneUnit],
    config: &LaneSweepConfig,
) -> Result<LaneSweep, ValidateNetlistError> {
    let max = config.max_lanes.clamp(1, gatesim::simd::MAX_LANES);
    let stimulus = Stimulus::new(netlist, config);
    let mut sweep = LaneSweep {
        points: Vec::with_capacity(units.len()),
        batches: 0,
        gate_evals: 0,
        gate_eval_slots: 0,
        gate_events: 0,
    };
    for chunk in units.chunks(max) {
        let mut sim = SimdLaneSim::new(Arc::clone(netlist), power.clone(), chunk.len())?;
        // Each cycle's draws land straight in per-input lane words:
        // `mask` marks the lanes re-driving an input, `value` their
        // new values, one `words`-long row per input.
        let words = chunk.len().div_ceil(64);
        let mut streams: Vec<UnitStream> = chunk.iter().map(|u| stimulus.stream(u)).collect();
        let mut mask = vec![0u64; stimulus.inputs.len() * words];
        let mut value = vec![0u64; stimulus.inputs.len() * words];
        for cycle in 0..config.cycles {
            mask.fill(0);
            value.fill(0);
            for (lane, stream) in streams.iter_mut().enumerate() {
                let (w, bit) = (lane / 64, lane % 64);
                stimulus.cycle(stream, |k, v| {
                    mask[k * words + w] |= 1 << bit;
                    value[k * words + w] |= u64::from(v) << bit;
                });
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
/// Returns [`ValidateNetlistError`] if the netlist fails validation.
pub fn run_lane_sweep_serial(
    netlist: &Arc<Netlist>,
    power: &PowerConfig,
    units: &[LaneUnit],
    config: &LaneSweepConfig,
) -> Result<LaneSweep, ValidateNetlistError> {
    let stimulus = Stimulus::new(netlist, config);
    let mut sweep = LaneSweep {
        points: Vec::with_capacity(units.len()),
        batches: units.len(),
        gate_evals: 0,
        gate_eval_slots: 0,
        gate_events: 0,
    };
    for unit in units {
        let mut sim = Simulator::with_kernel(
            Arc::clone(netlist),
            power.clone(),
            SimKernel::EventDriven,
        )?;
        let mut stream = stimulus.stream(unit);
        for cycle in 0..config.cycles {
            stimulus.cycle(&mut stream, |k, v| sim.set_input(stimulus.inputs[k], v));
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

/// Per-net toggle statistics over the Monte-Carlo lanes of a sweep
/// (stuck-at variants are excluded — their activity is biased by the
/// fault): the toggle-count mean and maximum per net, in deterministic
/// (lane-order) accumulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ToggleStats {
    /// Monte-Carlo lanes aggregated.
    pub lanes: usize,
    /// Mean toggle count per net, indexed by net id.
    pub per_net_mean: Vec<f64>,
    /// Maximum toggle count per net, indexed by net id.
    pub per_net_max: Vec<u64>,
}

/// Aggregates the Monte-Carlo points of a sweep into per-net toggle
/// statistics — the quantity the paper's gate-level estimator exists to
/// measure, now estimated over many stimulus vectors at once.
pub fn toggle_statistics(points: &[LanePoint]) -> ToggleStats {
    let mc: Vec<&LanePoint> = points
        .iter()
        .filter(|p| matches!(p.unit, LaneUnit::MonteCarlo { .. }))
        .collect();
    let nets = mc.first().map_or(0, |p| p.toggles.len());
    let mut per_net_mean = vec![0.0f64; nets];
    let mut per_net_max = vec![0u64; nets];
    for p in &mc {
        for (i, &t) in p.toggles.iter().enumerate() {
            per_net_mean[i] += t as f64;
            per_net_max[i] = per_net_max[i].max(t);
        }
    }
    if !mc.is_empty() {
        for m in &mut per_net_mean {
            *m /= mc.len() as f64;
        }
    }
    ToggleStats {
        lanes: mc.len(),
        per_net_mean,
        per_net_max,
    }
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
    fn toggle_statistics_cover_only_monte_carlo_lanes() {
        let n = netlist();
        let mut units: Vec<LaneUnit> = (0..8).map(|s| LaneUnit::MonteCarlo { seed: s }).collect();
        units.push(LaneUnit::StuckAt {
            seed: 0,
            net: n.primary_inputs()[0],
            stuck: true,
        });
        let sweep =
            run_lane_sweep(&n, &power(), &units, &LaneSweepConfig::default()).expect("valid");
        let stats = toggle_statistics(&sweep.points);
        assert_eq!(stats.lanes, 8);
        assert_eq!(stats.per_net_mean.len(), n.gate_count());
        for i in 0..n.gate_count() {
            let max = sweep.points[..8].iter().map(|p| p.toggles[i]).max().unwrap();
            assert_eq!(stats.per_net_max[i], max);
            assert!(stats.per_net_mean[i] <= max as f64);
        }
    }
}
