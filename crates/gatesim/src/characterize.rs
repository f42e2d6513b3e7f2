//! Hardware macro-op characterization (§4.1, Fig. 3).
//!
//! Each macro-operation's datapath block is instantiated as a small
//! netlist at the datapath width and driven with pseudo-random operands;
//! its mean switched energy per evaluation becomes the op's `.energy`
//! entry in the hardware parameter file. The energies depend only on the
//! width and the [`PowerConfig`], so [`macro_op_energies`] characterizes
//! them once per pair and keeps the table in the synthesis memo.
//!
//! A template without flops is priced in one word pass: its rounds are
//! independent, so bit *j* of each net's `u64` lane word carries round
//! *j* and one topological settle evaluates every round at once. The
//! register templates step their rounds through the event-driven kernel.

use crate::bus::{self, Bus};
use crate::netlist::{GateKind, Netlist};
use crate::power::{NetEnergies, PowerConfig};
use crate::sim::{settle_full, SimKernel, SimPlan, Simulator};
use crate::simd::{toggle_word_w, LaneWord};
use crate::synth::{memoized_macro_op_energies, SynthConfig};
use cfsm::{BinOp, MacroOp, UnOp, ALL_MACRO_OPS};
use std::sync::Arc;

/// Pseudo-random operand rounds averaged per macro-op: one per lane of
/// the word pass.
const ROUNDS: usize = 64;
const _: () = assert!(
    ROUNDS <= u64::BITS as usize,
    "the word pass holds one round per lane"
);

/// The mean switched energy per evaluation, in joules, of every
/// macro-op's hardware block, in [`ALL_MACRO_OPS`] order, at the
/// datapath width of `synth` under `power`.
///
/// The first call for a `(width, power)` pair characterizes the table;
/// later calls share it from the synthesis memo until
/// [`clear_synth_cache`](crate::clear_synth_cache) drops it.
/// `GATESIM_KERNEL` does not reach it: the word pass and the stepped
/// event-driven rounds reproduce either kernel's sums bit for bit.
///
/// # Panics
///
/// Panics if a characterization template is malformed, a bug in this
/// crate that the unit tests would catch.
pub fn macro_op_energies(synth: &SynthConfig, power: &PowerConfig) -> Arc<[f64]> {
    memoized_macro_op_energies(synth.width, power, || characterize(synth.width, power))
}

/// The characterization flow behind [`macro_op_energies`], unmemoized.
pub(crate) fn characterize(width: usize, power: &PowerConfig) -> Arc<[f64]> {
    let mut next = operand_rng();
    ALL_MACRO_OPS
        .iter()
        .map(|&op| op_energy(op, width, power, &mut next))
        .collect()
}

/// The operand stimulus: a deterministic LCG (no external randomness).
fn operand_rng() -> impl FnMut() -> u64 {
    let mut seed = 0x1234_5678_9abc_def0u64;
    move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 16
    }
}

/// Characterizes one macro-op, drawing its operands from `rng`.
fn op_energy(op: MacroOp, w: usize, power: &PowerConfig, rng: &mut dyn FnMut() -> u64) -> f64 {
    match template(op, w) {
        Some((nl, operands)) => mean_energy(nl, &operands, w, power, rng),
        // A handful of control lines toggling.
        None => power.switch_energy_j(8.0),
    }
}

/// The netlist that characterizes `op` at width `w` and the operand
/// buses each round drives, or `None` for the control ops, which have
/// no datapath block.
fn template(op: MacroOp, w: usize) -> Option<(Netlist, Vec<Bus>)> {
    let mut nl = Netlist::new();
    let operands = match op {
        MacroOp::Aemit | MacroOp::TivarT | MacroOp::TivarF => return None,
        // Register write / controller activity approximations: one word
        // register's clock + data load.
        MacroOp::Avv | MacroOp::MemRead | MacroOp::MemWrite => {
            let d = bus::input_bus(&mut nl, w);
            let en = nl.constant(true);
            bus::register(&mut nl, &d, en, 0);
            vec![d]
        }
        // Both operands are driven even where the block reads only one.
        MacroOp::Unary(_) | MacroOp::Binary(_) => {
            let x = bus::input_bus(&mut nl, w);
            let y = bus::input_bus(&mut nl, w);
            datapath(&mut nl, op, &x, &y);
            vec![x, y]
        }
    };
    Some((nl, operands))
}

/// Builds an operator's datapath block over operands `x` and `y`.
fn datapath(nl: &mut Netlist, op: MacroOp, x: &Bus, y: &Bus) {
    match op {
        MacroOp::Binary(b) => match b {
            BinOp::Add => {
                let c0 = nl.constant(false);
                bus::adder(nl, x, y, c0);
            }
            BinOp::Sub => {
                bus::subtractor(nl, x, y);
            }
            // Division has no hardware implementation; charge the
            // multiplier's cost as a conservative stand-in (such
            // processes are normally mapped to software).
            BinOp::Mul | BinOp::Div | BinOp::Rem => {
                bus::multiplier(nl, x, y);
            }
            BinOp::And => {
                bus::bitwise(nl, GateKind::And, x, y);
            }
            BinOp::Or => {
                bus::bitwise(nl, GateKind::Or, x, y);
            }
            BinOp::Xor => {
                bus::bitwise(nl, GateKind::Xor, x, y);
            }
            BinOp::Eq | BinOp::Ne => {
                bus::equal(nl, x, y);
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                bus::less_than_signed(nl, x, y);
            }
            BinOp::Shl | BinOp::Shr => {
                bus::shift_left_const(nl, x, 1);
            }
        },
        MacroOp::Unary(u) => match u {
            UnOp::Neg => {
                bus::negate(nl, x);
            }
            UnOp::Not => {
                bus::bitwise_not(nl, x);
            }
            UnOp::LNot => {
                let nz = bus::nonzero(nl, x);
                nl.gate(GateKind::Not, vec![nz]);
            }
        },
        MacroOp::Avv
        | MacroOp::Aemit
        | MacroOp::TivarT
        | MacroOp::TivarF
        | MacroOp::MemRead
        | MacroOp::MemWrite => {}
    }
}

/// Mean energy per cycle of `nl` over [`ROUNDS`] cycles, each forcing
/// fresh random values onto `operands` (drawn in operand order), summed
/// from −0.0 in round order.
fn mean_energy(
    nl: Netlist,
    operands: &[Bus],
    w: usize,
    power: &PowerConfig,
    rng: &mut dyn FnMut() -> u64,
) -> f64 {
    let mask = bus::mask_to_width(-1, w);
    let rounds: Vec<Vec<u64>> = (0..ROUNDS)
        .map(|_| operands.iter().map(|_| rng() & mask).collect())
        .collect();
    let total = if nl.dff_count() == 0 {
        word_pass(nl, operands, &rounds, power)
    } else {
        // The templates are fixed, so a validation failure is a bug.
        let mut sim = Simulator::with_kernel(Arc::new(nl), power.clone(), SimKernel::EventDriven)
            .unwrap_or_else(|e| panic!("malformed characterization template: {e}"));
        rounds.iter().fold(-0.0, |total, values| {
            for (operand, &v) in operands.iter().zip(values) {
                sim.set_input_bus(operand.nets(), v);
            }
            total + sim.step()
        })
    };
    total / ROUNDS as f64
}

/// The summed energy of `rounds` on the flop-free template `nl`, every
/// round in one settle of `u64` lane words, lane *j* = round *j*. Each
/// round's energy folds its toggled nets in ascending net order onto
/// the clock-tree charge, round 0 measured from the reset values and
/// each later round from the one before: a scalar kernel's exact float
/// order over the same rounds.
fn word_pass(nl: Netlist, operands: &[Bus], rounds: &[Vec<u64>], power: &PowerConfig) -> f64 {
    let plan = SimPlan::new(Arc::new(nl))
        .unwrap_or_else(|e| panic!("malformed characterization template: {e}"));
    let energies = NetEnergies::new(plan.netlist(), power);
    let reset = plan.reset_values();
    let mut lanes: Vec<u64> = reset.iter().map(|&v| u64::splat(v)).collect();
    for (j, values) in rounds.iter().enumerate() {
        for (operand, &v) in operands.iter().zip(values) {
            for (i, &net) in operand.nets().iter().enumerate() {
                lanes[net.0 as usize] |= ((v >> i) & 1) << j;
            }
        }
    }
    settle_full(plan.netlist(), plan.order(), &mut lanes);
    let live = u64::low_mask(rounds.len() as u32);
    let mut round_j = vec![energies.clock_j; rounds.len()];
    for (i, (&lane, &was)) in lanes.iter().zip(reset).enumerate() {
        (toggle_word_w(lane, was) & live)
            .for_each_lane(|j| round_j[j as usize] += energies.switch_j[i]);
    }
    round_j.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::memo_lock;
    use crate::{clear_synth_cache, SimKernel};

    fn bits(table: &[f64]) -> Vec<u64> {
        table.iter().map(|e| e.to_bits()).collect()
    }

    fn scaled_vdd() -> PowerConfig {
        PowerConfig {
            vdd: 1.8,
            ..PowerConfig::date2000_defaults()
        }
    }

    /// The reference flow: per op, one `set_input_bus` per operand and
    /// one `step` per round, on an explicitly chosen kernel.
    fn stepped(width: usize, power: &PowerConfig, kernel: SimKernel) -> Vec<f64> {
        let mut next = operand_rng();
        let mask = bus::mask_to_width(-1, width);
        ALL_MACRO_OPS
            .iter()
            .map(|&op| {
                let Some((nl, operands)) = template(op, width) else {
                    return power.switch_energy_j(8.0);
                };
                let mut sim = Simulator::with_kernel(Arc::new(nl), power.clone(), kernel)
                    .expect("template validates");
                let mut total = 0.0;
                for _ in 0..ROUNDS {
                    for operand in &operands {
                        sim.set_input_bus(operand.nets(), next() & mask);
                    }
                    total += sim.step();
                }
                total / ROUNDS as f64
            })
            .collect()
    }

    #[test]
    fn word_pass_matches_stepped_rounds_under_every_kernel() {
        // The flow prices the flop-free templates in one word pass and
        // steps the registers event-driven; the reference steps every
        // template under each kernel, at both ends of the width range.
        for (width, power) in [
            (1, PowerConfig::date2000_defaults()),
            (8, PowerConfig::date2000_defaults()),
            (16, PowerConfig::date2000_defaults()),
            (32, PowerConfig::date2000_defaults()),
            (63, PowerConfig::date2000_defaults()),
            (16, scaled_vdd()),
        ] {
            let priced = bits(&characterize(width, &power));
            assert_eq!(priced.len(), ALL_MACRO_OPS.len());
            for kernel in [SimKernel::EventDriven, SimKernel::Oblivious] {
                assert_eq!(
                    bits(&stepped(width, &power, kernel)),
                    priced,
                    "width {width}, vdd {}, kernel {kernel:?}",
                    power.vdd
                );
            }
        }
    }

    #[test]
    fn memoized_tables_equal_fresh_characterizations() {
        let _memo = memo_lock();
        for (width, power) in [
            (8, PowerConfig::date2000_defaults()),
            (16, PowerConfig::date2000_defaults()),
            (32, PowerConfig::date2000_defaults()),
            (16, scaled_vdd()),
        ] {
            let synth = SynthConfig::with_width(width);
            let first = macro_op_energies(&synth, &power);
            let second = macro_op_energies(&synth, &power);
            assert!(Arc::ptr_eq(&first, &second), "width {width}: memo hit");
            assert_eq!(bits(&first), bits(&characterize(width, &power)));
        }
    }

    #[test]
    fn any_key_change_misses() {
        let _memo = memo_lock();
        let base = PowerConfig::date2000_defaults();
        let synth = SynthConfig::new();
        let table = macro_op_energies(&synth, &base);
        let variants = [
            (SynthConfig::with_width(synth.width + 1), base.clone()),
            (synth.clone(), scaled_vdd()),
            (
                synth.clone(),
                PowerConfig {
                    cap_per_fanout_ff: base.cap_per_fanout_ff * 2.0,
                    ..base.clone()
                },
            ),
            (
                synth.clone(),
                PowerConfig {
                    clock_cap_per_dff_ff: base.clock_cap_per_dff_ff * 2.0,
                    ..base.clone()
                },
            ),
        ];
        for (synth, power) in &variants {
            let other = macro_op_energies(synth, power);
            assert!(!Arc::ptr_eq(&table, &other), "{synth:?} {power:?}");
            assert_ne!(bits(&table), bits(&other), "{synth:?} {power:?}");
        }
    }

    #[test]
    fn clearing_the_memo_drops_the_tables() {
        let _memo = memo_lock();
        let (synth, power) = (SynthConfig::new(), PowerConfig::date2000_defaults());
        let before = macro_op_energies(&synth, &power);
        let old = Arc::downgrade(&before);
        clear_synth_cache();
        let after = macro_op_energies(&synth, &power);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(bits(&before), bits(&after));
        drop(before);
        assert!(old.upgrade().is_none(), "the memo kept the old table");
    }
}
