//! Sweep-level lane fuzz: the lane-scheduled sweep against the serial
//! scalar sweep, bit for bit.
//!
//! Each case draws a netlist from the differential fuzz's generator
//! (with flops or without, one in three past four 64-bit words of nets),
//! 1–300 units mixing Monte-Carlo and stuck-at units (some stuck-at
//! units share their seed with a Monte-Carlo sibling), `max_lanes` in
//! 1..=512, `toggle_probability` 0, 1 or random, and up to 300 cycles.
//! Half the netlists also carry a toggle flop, so that a long case
//! wraps the lanes' toggle-counter planes into their spill (few
//! generated netlists oscillate on their own). [`run_lane_sweep`] must
//! return the points of [`run_lane_sweep_serial`] exactly — units,
//! per-cycle energy bits, toggles and values — and the same
//! `gate_events`. `FUZZ_N` sets the
//! number of cases (default 120, as in the differential fuzz; CI runs
//! 1000 in release).

#![allow(clippy::expect_used, clippy::unwrap_used)]

#[path = "../../gatesim/tests/common/mod.rs"]
mod common;

use co_estimation::{
    run_lane_sweep, run_lane_sweep_serial, LanePoint, LaneSweep, LaneSweepConfig, LaneUnit,
};
use common::random_netlist;
use detrand::Rng;
use gatesim::{GateKind, NetId, Netlist, PowerConfig};
use std::sync::Arc;

/// Random cases: `FUZZ_N`, or 120 when unset.
fn cases() -> u64 {
    std::env::var("FUZZ_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// `count` units over `netlist`'s primary inputs: about one in three
/// stuck at a random input, and seeds drawn from a pool of eight so
/// that stuck-at units often share a Monte-Carlo unit's stream.
fn random_units(netlist: &Netlist, count: usize, rng: &mut Rng) -> Vec<LaneUnit> {
    let inputs = netlist.primary_inputs();
    let pool: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    (0..count)
        .map(|_| {
            let seed = if rng.bool_with(0.5) {
                *rng.choose(&pool)
            } else {
                rng.next_u64()
            };
            if rng.bool_with(1.0 / 3.0) {
                LaneUnit::StuckAt {
                    seed,
                    net: *rng.choose(&inputs),
                    stuck: rng.bool_with(0.5),
                }
            } else {
                LaneUnit::MonteCarlo { seed }
            }
        })
        .collect()
}

/// Appends a flop fed by its own inverter, which toggles every cycle in
/// every lane, and an AND of it with a random existing net, whose count
/// differs by lane.
fn add_toggle_flop(n: &mut Netlist, rng: &mut Rng) {
    let other = NetId(rng.usize_in(0, n.gate_count()) as u32);
    let d = n.wire();
    let q = n.dff(d, false);
    let not_q = n.gate(GateKind::Not, vec![q]);
    n.drive(d, not_q);
    n.gate(GateKind::And, vec![q, other]);
}

/// Asserts the two sweeps' points equal to the bit, and their
/// `gate_events`.
fn assert_same_points(lanes: &LaneSweep, serial: &LaneSweep, what: &str) {
    assert_eq!(
        lanes.points.len(),
        serial.points.len(),
        "{what}: point count"
    );
    for (k, (l, s)) in lanes.points.iter().zip(&serial.points).enumerate() {
        assert_eq!(l.unit, s.unit, "{what}: unit {k}");
        let bits = |p: &LanePoint| -> Vec<u64> {
            p.report.per_cycle_j.iter().map(|e| e.to_bits()).collect()
        };
        assert_eq!(bits(l), bits(s), "{what}: unit {k} {:?} energy", l.unit);
        assert_eq!(
            l.toggles, s.toggles,
            "{what}: unit {k} {:?} toggles",
            l.unit
        );
        assert_eq!(l.values, s.values, "{what}: unit {k} {:?} values", l.unit);
    }
    assert_eq!(lanes.gate_events, serial.gate_events, "{what}: gate_events");
}

#[test]
fn lane_sweeps_equal_serial_sweeps_on_random_netlists() {
    let power = PowerConfig::date2000_defaults();
    // Cases that wrapped a counter past 255 toggles, ran more than one
    // batch, ran a batch wider than one `u64`, and carried stuck-at
    // units.
    let (mut spilled, mut multi_batch, mut wide, mut stuck) = (0, 0, 0, 0);
    let cases = cases();
    for case in 0..cases {
        let mut rng = Rng::new(0x1A9E_5EE9_0000_0000 ^ case);
        let flops = rng.bool_with(0.7);
        let mut netlist = random_netlist(&mut rng, flops);
        if rng.bool_with(0.5) {
            add_toggle_flop(&mut netlist, &mut rng);
        }
        let netlist = Arc::new(netlist);
        let units = random_units(&netlist, rng.usize_in(1, 301), &mut rng);
        let config = LaneSweepConfig {
            cycles: if rng.bool_with(0.3) {
                rng.usize_in(256, 301)
            } else {
                rng.usize_in(0, 64)
            },
            toggle_probability: match rng.usize_in(0, 3) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.f64(),
            },
            max_lanes: rng.usize_in(1, 513),
        };
        let what = format!(
            "case {case} ({} gates, {} units, {config:?})",
            netlist.gate_count(),
            units.len()
        );
        let lanes = run_lane_sweep(&netlist, &power, &units, &config).expect("valid netlist");
        let serial =
            run_lane_sweep_serial(&netlist, &power, &units, &config).expect("valid netlist");
        assert_same_points(&lanes, &serial, &what);
        assert_eq!(
            lanes.batches,
            units.len().div_ceil(config.max_lanes.min(512)),
            "{what}: batches"
        );
        spilled += usize::from(
            lanes
                .points
                .iter()
                .flat_map(|p| &p.toggles)
                .any(|&t| t > 255),
        );
        multi_batch += usize::from(lanes.batches > 1);
        wide += usize::from(config.max_lanes.min(units.len()) > 64);
        stuck += usize::from(units.iter().any(|u| matches!(u, LaneUnit::StuckAt { .. })));
    }
    assert!(spilled > 0, "no case wrapped a toggle counter");
    assert!(multi_batch > 0, "no case ran more than one batch");
    assert!(wide > 0, "no case ran a batch wider than one u64");
    assert!(stuck > 0, "no case carried a stuck-at unit");
}
