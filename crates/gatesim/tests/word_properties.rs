//! Property tests for the lane words and the lockstep simulators.
//!
//! Three families:
//!
//! * toggle words at every lane width: the popcount of a toggle word
//!   equals the scalar transition count of the packed sequence;
//! * popcount energy accumulation: summing switch energy lane-by-lane
//!   over random toggle masks lands on the same floats as the scalar
//!   per-cycle accumulation, because both add the identical term list
//!   in the identical order;
//! * [`LaneSim`] equivalence: every lane of a lockstep run is
//!   bit-identical (per-cycle energy, values, toggles) to a scalar
//!   [`Simulator`] run of that lane's stream.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use detrand::Rng;
use gatesim::simd::toggle_word_w;
use gatesim::{
    GateKind, LaneSim, LaneWord, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator,
    W256,
};
use std::sync::Arc;

/// Popcount of a toggle word over the packed prefix equals the scalar
/// transition count of the sequence, at lane width `W`.
fn toggle_popcount_matches_scalar<W: LaneWord>(seed: u64) {
    let mut rng = Rng::new(seed);
    for _ in 0..500 {
        let width = rng.usize_in(1, W::BITS as usize + 1);
        let prev = rng.bool_with(0.5);
        let seq: Vec<bool> = (0..width).map(|_| rng.bool_with(0.5)).collect();
        // Scalar truth: count transitions against the running value.
        let mut scalar = 0u32;
        let mut cur = prev;
        for &b in &seq {
            if b != cur {
                scalar += 1;
                cur = b;
            }
        }
        let lane = seq
            .iter()
            .enumerate()
            .fold(W::ZERO, |w, (j, &b)| w.with_bit(j as u32, b));
        let t = toggle_word_w(lane, prev).and(W::low_mask(width as u32));
        assert_eq!(t.count_ones(), scalar, "prev={prev} seq={seq:?}");
    }
}

#[test]
fn toggle_word_popcount_equals_scalar_toggle_count() {
    toggle_popcount_matches_scalar::<u64>(0x9ACC_0002);
    toggle_popcount_matches_scalar::<W256>(0x9ACC_0004);
}

#[test]
fn popcount_energy_accumulation_is_bit_exact() {
    // Per-lane energy folded from random toggle masks must equal the
    // scalar fold over the same per-cycle term lists, bitwise: both
    // sides add `clock + Σ (toggled net ascending) switch_energy` in
    // the same order, so this pins the accumulation-order contract the
    // kernels rely on.
    let config = PowerConfig::date2000_defaults();
    let mut rng = Rng::new(0x9ACC_0003);
    for _ in 0..50 {
        let n_nets = rng.usize_in(3, 12);
        let cycles = rng.usize_in(1, 65);
        let clock = 7.5e-15 * config.vdd * config.vdd; // arbitrary fixed clock term
        let caps: Vec<f64> = (0..n_nets).map(|_| rng.usize_in(1, 40) as f64 * 1.5).collect();
        // One toggle word per net (cycle-packed lanes).
        let masks: Vec<u64> = (0..n_nets)
            .map(|_| rng.u64_in(0, u64::MAX))
            .map(|w| {
                if cycles == 64 {
                    w
                } else {
                    w & ((1u64 << cycles) - 1)
                }
            })
            .collect();
        // Scalar: per cycle, walk nets ascending.
        let scalar: Vec<f64> = (0..cycles)
            .map(|j| {
                let mut e = clock;
                for (i, &m) in masks.iter().enumerate() {
                    if (m >> j) & 1 == 1 {
                        e += config.switch_energy_j(caps[i]);
                    }
                }
                e
            })
            .collect();
        // Word: identical double loop driven by the packed masks, each
        // cycle's terms in ascending net order, as the macro-op
        // characterization's word pass folds its rounds.
        let word: Vec<f64> = (0..cycles)
            .map(|j| {
                masks
                    .iter()
                    .enumerate()
                    .fold(clock, |e, (i, &m)| {
                        if (m >> j) & 1 == 1 {
                            e + config.switch_energy_j(caps[i])
                        } else {
                            e
                        }
                    })
            })
            .collect();
        let scalar_bits: Vec<u64> = scalar.iter().map(|e| e.to_bits()).collect();
        let word_bits: Vec<u64> = word.iter().map(|e| e.to_bits()).collect();
        assert_eq!(scalar_bits, word_bits);
        // And the popcount totals reconcile with per-cycle counting.
        let total: u32 = masks.iter().map(|m| m.count_ones()).sum();
        let per_cycle: u32 = (0..cycles)
            .map(|j| masks.iter().filter(|&&m| (m >> j) & 1 == 1).count() as u32)
            .sum();
        assert_eq!(total, per_cycle);
    }
}

/// A small random netlist generator (compact sibling of the
/// differential-fuzz generator; integration tests link separately).
fn random_netlist(rng: &mut Rng) -> Netlist {
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = Vec::new();
    for _ in 0..rng.usize_in(2, 4) {
        nets.push(n.input());
    }
    if rng.bool_with(0.5) {
        nets.push(n.constant(true));
    }
    for _ in 0..rng.usize_in(8, 30) {
        let id = match rng.usize_in(0, 8) {
            0 => n.dff(*rng.choose(&nets), rng.bool_with(0.5)),
            1 => n.gate(GateKind::Not, vec![*rng.choose(&nets)]),
            2 => {
                let (s, a, b) = (*rng.choose(&nets), *rng.choose(&nets), *rng.choose(&nets));
                n.gate(GateKind::Mux, vec![s, a, b])
            }
            _ => {
                let kind = *rng.choose(&[GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand]);
                let ins = (0..rng.usize_in(1, 3)).map(|_| *rng.choose(&nets)).collect();
                n.gate(kind, ins)
            }
        };
        nets.push(id);
    }
    n.mark_output("last", *nets.last().expect("nonempty"));
    n
}

#[test]
fn every_lane_matches_a_scalar_run() {
    for case in 0..25u64 {
        let mut rng = Rng::new(0x1A9E_0000_0000_0000 | case);
        let netlist = Arc::new(random_netlist(&mut rng));
        let primary = netlist.primary_inputs();
        let lanes = rng.usize_in(1, 8);
        let cycles = rng.usize_in(5, 30);
        // Independent per-lane stimulus streams.
        let streams: Vec<Vec<Vec<(NetId, bool)>>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| {
                        primary
                            .iter()
                            .filter_map(|&p| {
                                if rng.bool_with(0.4) {
                                    Some((p, rng.bool_with(0.5)))
                                } else {
                                    None
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut lane_sim = LaneSim::new(
            Arc::clone(&netlist),
            PowerConfig::date2000_defaults(),
            lanes,
        )
        .expect("valid");
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    lane_sim.set_input(l, net, v);
                }
            }
            lane_sim.step();
        }
        let mut scalar_events = 0u64;
        for (l, stream) in streams.iter().enumerate() {
            let mut scalar = Simulator::with_kernel(
                Arc::clone(&netlist),
                PowerConfig::date2000_defaults(),
                SimKernel::EventDriven,
            )
            .expect("valid");
            for cyc in stream {
                for &(net, v) in cyc {
                    scalar.set_input(net, v);
                }
                scalar.step();
            }
            scalar_events += scalar.gate_events();
            let scalar_bits: Vec<u64> =
                scalar.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
            let lane_bits: Vec<u64> =
                lane_sim.report(l).per_cycle_j.iter().map(|e| e.to_bits()).collect();
            assert_eq!(scalar_bits, lane_bits, "case {case} lane {l} energy");
            for i in 0..netlist.gate_count() {
                let net = NetId(i as u32);
                assert_eq!(
                    lane_sim.value(net, l),
                    scalar.value(net),
                    "case {case} lane {l} net {i}"
                );
                assert_eq!(
                    lane_sim.toggle_count(net, l),
                    scalar.toggle_count(net),
                    "case {case} lane {l} net {i} toggles"
                );
            }
        }
        // Lockstep activity is the sum of the scalar runs' activity.
        assert_eq!(lane_sim.gate_events(), scalar_events, "case {case}");
    }
}

#[test]
fn simd_lane_counts_match_scalar_runs_at_width_boundaries() {
    // Lane counts straddling every lane-word width — a single lane, one
    // short of / exactly / one past the u64 word, and the wider 128-
    // and 256-lane words. Every lane of the width-erased [`SimdLaneSim`]
    // must be bit-identical (per-cycle energy, values, toggles) to its
    // own scalar event-driven run; the random netlists include DFF
    // chains, so flop edges land inside and across word boundaries.
    for &lanes in &[1usize, 63, 64, 65, 128, 256] {
        let mut rng = Rng::new(0x51D0_0000_0000_0000 | lanes as u64);
        let netlist = Arc::new(random_netlist(&mut rng));
        let primary = netlist.primary_inputs();
        let cycles = 20usize;
        let streams: Vec<Vec<Vec<(NetId, bool)>>> = (0..lanes)
            .map(|_| {
                (0..cycles)
                    .map(|_| {
                        primary
                            .iter()
                            .filter_map(|&p| {
                                if rng.bool_with(0.4) {
                                    Some((p, rng.bool_with(0.5)))
                                } else {
                                    None
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut sim = SimdLaneSim::new(
            Arc::clone(&netlist),
            PowerConfig::date2000_defaults(),
            lanes,
        )
        .expect("valid");
        assert_eq!(sim.lanes(), lanes);
        for j in 0..cycles {
            for (l, stream) in streams.iter().enumerate() {
                for &(net, v) in &stream[j] {
                    sim.set_input(l, net, v);
                }
            }
            sim.step();
        }
        let mut scalar_events = 0u64;
        for (l, stream) in streams.iter().enumerate() {
            let mut scalar = Simulator::with_kernel(
                Arc::clone(&netlist),
                PowerConfig::date2000_defaults(),
                SimKernel::EventDriven,
            )
            .expect("valid");
            for cyc in stream {
                for &(net, v) in cyc {
                    scalar.set_input(net, v);
                }
                scalar.step();
            }
            scalar_events += scalar.gate_events();
            let scalar_bits: Vec<u64> =
                scalar.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
            let lane_bits: Vec<u64> =
                sim.report(l).per_cycle_j.iter().map(|e| e.to_bits()).collect();
            assert_eq!(scalar_bits, lane_bits, "lanes {lanes} lane {l} energy");
            for i in 0..netlist.gate_count() {
                let net = NetId(i as u32);
                assert_eq!(
                    sim.value(net, l),
                    scalar.value(net),
                    "lanes {lanes} lane {l} net {i}"
                );
                assert_eq!(
                    sim.toggle_count(net, l),
                    scalar.toggle_count(net),
                    "lanes {lanes} lane {l} net {i} toggles"
                );
            }
        }
        assert_eq!(sim.gate_events(), scalar_events, "lanes {lanes}");
    }
}
