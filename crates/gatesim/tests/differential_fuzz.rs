//! Differential fuzzing of the two simulation kernels and the lockstep
//! lanes.
//!
//! The event-driven kernel's contract with the oblivious reference path
//! is *bitwise* identity — same settled values every cycle, same toggle
//! counters, same per-cycle energy down to the last mantissa bit (the
//! float accumulation order is part of the contract). This suite builds
//! random netlists (including DFF-to-DFF chains, constants, flops fed
//! back from nets built after them, and reconvergent logic) and drives
//! the kernels with identical random input sequences: cycle by cycle
//! with held-input [`Simulator::run`] stretches in between (0, 1, 2, 7
//! and 300 cycles — the event-driven kernel fast-forwards the quiescent
//! part of a stretch, and feedback flops keep some stretches from ever
//! going quiet). Each case draws one netlist with flops and one
//! without. One netlist in three has 65–300 gates, so the dirty set
//! spans several 64-bit words. Every random-stimulus case also runs on
//! a [`SimdLaneSim`] of 1–130 lanes: the case's stimulus and holds drive
//! one lane, random streams drive the others, and that lane must equal
//! the oblivious reference bit for bit (per-cycle energy, values after
//! every step and stretch, toggles). `FUZZ_N` scales the random cases
//! (default 120; CI runs 1000).

#![allow(clippy::expect_used, clippy::unwrap_used)]

mod common;

use common::random_netlist;
use detrand::Rng;
use gatesim::{
    GateKind, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator, ValidateNetlistError,
};
use std::sync::Arc;

/// Random per-cycle input forcings over the primary inputs.
fn random_stimulus(
    netlist: &Netlist,
    cycles: usize,
    change_p: f64,
    rng: &mut Rng,
) -> Vec<Vec<(NetId, bool)>> {
    let primary = netlist.primary_inputs();
    (0..cycles)
        .map(|_| {
            primary
                .iter()
                .filter_map(|&p| {
                    if rng.bool_with(change_p) {
                        Some((p, rng.bool_with(0.5)))
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect()
}

/// Held-input stretch lengths the random-stimulus driver runs: none, one
/// and two cycles, a few, and more than four 64-cycle words.
const HOLDS: [u64; 5] = [0, 1, 2, 7, 300];

/// Per stimulus cycle, the held-input [`Simulator::run`] stretch to
/// drive after it, if any.
fn random_holds(cycles: usize, rng: &mut Rng) -> Vec<Option<u64>> {
    (0..cycles)
        .map(|_| rng.bool_with(0.25).then(|| *rng.choose(&HOLDS)))
        .collect()
}

/// One observation after a step or a held-input stretch: the returned
/// energy's bit pattern, every net's value, the cycle count and the
/// gate events, so any divergence pins the exact cycle and net.
type Obs = (u64, Vec<bool>, u64, u64);

/// The random-stimulus driver's record: per-step and per-stretch
/// observations, final toggle counts, and the per-cycle energy bits.
type Drive = (Vec<Obs>, Vec<Obs>, Vec<u64>, Vec<u64>);

fn drive(
    netlist: &Arc<Netlist>,
    kernel: SimKernel,
    stimulus: &[Vec<(NetId, bool)>],
    holds: &[Option<u64>],
) -> Drive {
    let mut sim = Simulator::with_kernel(Arc::clone(netlist), PowerConfig::date2000_defaults(), kernel)
        .expect("random netlists are valid by construction");
    let observe = |sim: &Simulator, e: f64| {
        let values = (0..netlist.gate_count())
            .map(|i| sim.value(NetId(i as u32)))
            .collect();
        (e.to_bits(), values, sim.cycle(), sim.gate_events())
    };
    let (mut steps, mut stretches) = (Vec::new(), Vec::new());
    for (inputs, hold) in stimulus.iter().zip(holds) {
        for &(net, v) in inputs {
            sim.set_input(net, v);
        }
        let e = sim.step();
        steps.push(observe(&sim, e));
        if let Some(n) = *hold {
            let e = sim.run(n);
            stretches.push(observe(&sim, e));
        }
    }
    let toggles = (0..netlist.gate_count())
        .map(|i| sim.toggle_count(NetId(i as u32)))
        .collect();
    let report_bits = sim.report().per_cycle_j.iter().map(|e| e.to_bits()).collect();
    (steps, stretches, toggles, report_bits)
}

/// The lane driver's record of one lane: its values after each step and
/// each held-input stretch, its final toggle counts, and its per-cycle
/// energy bits — the lane's share of a [`Drive`].
type LaneDrive = (Vec<Vec<bool>>, Vec<Vec<bool>>, Vec<u64>, Vec<u64>);

/// The part of a scalar [`Drive`] one lane of a lockstep run reproduces:
/// values per step and stretch, toggles and per-cycle energy.
fn lane_view(d: &Drive) -> LaneDrive {
    let values = |obs: &[Obs]| obs.iter().map(|o| o.1.clone()).collect();
    (values(&d.0), values(&d.1), d.2.clone(), d.3.clone())
}

/// Drives `stimulus` and `holds` into lane `lane` of a `lanes`-wide
/// [`SimdLaneSim`] as [`drive`] drives a scalar simulator, with random
/// forcings from `rng` in every other lane, and records that lane.
fn drive_lane(
    netlist: &Arc<Netlist>,
    stimulus: &[Vec<(NetId, bool)>],
    holds: &[Option<u64>],
    (lanes, lane): (usize, usize),
    rng: &mut Rng,
) -> LaneDrive {
    let mut sim = SimdLaneSim::new(Arc::clone(netlist), PowerConfig::date2000_defaults(), lanes)
        .expect("random netlists are valid by construction");
    let primary = netlist.primary_inputs();
    let nets = || (0..netlist.gate_count() as u32).map(NetId);
    let observe = |sim: &SimdLaneSim| nets().map(|i| sim.value(i, lane)).collect();
    let (mut steps, mut stretches) = (Vec::new(), Vec::new());
    for (inputs, hold) in stimulus.iter().zip(holds) {
        for other in (0..lanes).filter(|&l| l != lane) {
            for &p in &primary {
                if rng.bool_with(0.6) {
                    sim.set_input(other, p, rng.bool_with(0.5));
                }
            }
        }
        for &(net, v) in inputs {
            sim.set_input(lane, net, v);
        }
        sim.step();
        steps.push(observe(&sim));
        if let Some(n) = *hold {
            sim.run(n);
            stretches.push(observe(&sim));
        }
    }
    let toggles = nets().map(|i| sim.toggle_count(i, lane)).collect();
    let report_bits = sim.report(lane).per_cycle_j.iter().map(|e| e.to_bits()).collect();
    (steps, stretches, toggles, report_bits)
}

/// Random cases per differential test, each with one netlist with flops
/// and one without: `FUZZ_N`, or 120 when unset.
fn cases() -> u64 {
    std::env::var("FUZZ_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

#[test]
fn all_kernels_match_oblivious_over_120_random_cases() {
    // Long stretches that end quiet (the last cycle charged the clock
    // tree alone) and that end busy (flops still oscillating), flop-free
    // netlists, and netlists whose dirty set spans four words.
    let (mut quiet, mut busy, mut flop_free, mut four_words) = (0, 0, 0, 0);
    let mut wide_lanes = 0;
    let cases = cases();
    for case in 0..cases {
        let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15 ^ case);
        let sequential = Arc::new(random_netlist(&mut rng, true));
        let cycles = rng.usize_in(10, 40);
        let stimulus = random_stimulus(&sequential, cycles, 0.6, &mut rng);
        let holds = random_holds(cycles, &mut rng);
        let mut flat_rng = Rng::new(0xF10B_F7EE_0000_0000 ^ case);
        let flat = Arc::new(random_netlist(&mut flat_rng, false));
        let flat_stimulus = random_stimulus(&flat, cycles, 0.6, &mut flat_rng);
        let mut lane_rng = Rng::new(0x1A9E_F022_0000_0000 ^ case);
        let mut check = |netlist: &Arc<Netlist>, stimulus: &[Vec<(NetId, bool)>]| {
            four_words += usize::from(netlist.validate().expect("valid").len() > 192);
            flop_free += usize::from(netlist.dff_count() == 0);
            let reference = drive(netlist, SimKernel::Oblivious, stimulus, &holds);
            let lanes = lane_rng.usize_in(1, 131);
            let lane = lane_rng.usize_in(0, lanes);
            assert_eq!(
                drive_lane(netlist, stimulus, &holds, (lanes, lane), &mut lane_rng),
                lane_view(&reference),
                "lane {lane} of {lanes} diverged in case {case} ({} gates, {} cycles, holds {holds:?})",
                netlist.gate_count(),
                cycles
            );
            wide_lanes += usize::from(lanes > 64);
            assert_eq!(
                drive(netlist, SimKernel::EventDriven, stimulus, &holds),
                reference,
                "event-driven diverged in case {case} ({} gates, {} cycles, holds {holds:?})",
                netlist.gate_count(),
                cycles
            );
            reference
        };
        check(&flat, &flat_stimulus);
        let (_, stretches, _, report) = check(&sequential, &stimulus);
        let clock = Simulator::with_kernel(
            Arc::clone(&sequential),
            PowerConfig::date2000_defaults(),
            SimKernel::Oblivious,
        )
        .expect("valid")
        .clock_energy_per_cycle_j()
        .to_bits();
        let long = holds
            .iter()
            .flatten()
            .zip(&stretches)
            .filter(|(&n, _)| n == 300);
        for (_, &(_, _, end, _)) in long {
            if report[end as usize - 1] == clock {
                quiet += 1;
            } else {
                busy += 1;
            }
        }
    }
    assert!(
        quiet > 0 && busy > 0,
        "{quiet} quiet and {busy} busy 300-cycle stretches"
    );
    assert!(
        flop_free >= cases as usize,
        "{flop_free} flop-free netlists ran in {cases} cases"
    );
    assert!(four_words > 0, "no netlist spans four dirty-set words");
    assert!(wide_lanes > 0, "no case ran lanes past one u64 word");
}

#[test]
fn block_boundary_dff_edges_shift_exactly() {
    // A deterministic long shift register: after `len + k` cycles the
    // head pulse sits `k` flops deep regardless of how the held cycles
    // after it were cut into `run` blocks.
    let mut n = Netlist::new();
    let head = n.input();
    let mut q = n.dff(head, false);
    let mut taps = vec![q];
    for _ in 0..69 {
        q = n.dff(q, false);
        taps.push(q);
    }
    n.mark_output("tail", q);
    let netlist = Arc::new(n);
    // Pulses the head for exactly one cycle, then holds it low for 126
    // more cycles in `run` blocks of `segments`; records the per-cycle
    // energy bits, the final values and toggles, and the gate events.
    let drive_blocks = |kernel, segments: &[u64]| {
        let mut sim = Simulator::with_kernel(
            Arc::clone(&netlist),
            PowerConfig::date2000_defaults(),
            kernel,
        )
        .expect("valid");
        for v in [true, false] {
            sim.set_input(head, v);
            sim.step();
        }
        for &seg in segments {
            sim.run(seg);
        }
        let nets = || (0..netlist.gate_count() as u32).map(NetId);
        let report: Vec<u64> = sim
            .report()
            .per_cycle_j
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let values: Vec<bool> = nets().map(|i| sim.value(i)).collect();
        let toggles: Vec<u64> = nets().map(|i| sim.toggle_count(i)).collect();
        (report, values, toggles, sim.gate_events())
    };
    let whole = drive_blocks(SimKernel::Oblivious, &[126]);
    for segments in [vec![126u64], vec![62, 64], vec![63, 63], vec![1, 61, 64]] {
        for kernel in [SimKernel::Oblivious, SimKernel::EventDriven] {
            assert_eq!(
                drive_blocks(kernel, &segments),
                whole,
                "{kernel:?} with blocks {segments:?} changed per-cycle behaviour"
            );
        }
    }
    // And the pulse really is where it should be: 128 cycles deep into
    // a 70-flop chain, long gone off the end; re-run to mid-flight by
    // stepping.
    let mut sim = Simulator::with_kernel(
        Arc::clone(&netlist),
        PowerConfig::date2000_defaults(),
        SimKernel::EventDriven,
    )
    .expect("valid");
    for cycle in 0..40 {
        sim.set_input(head, cycle == 0);
        sim.step();
    }
    // The pulse is latched into taps[0] at the first cycle's edge and
    // advances one flop per cycle: after 40 cycles it sits at taps[39].
    for (i, &tap) in taps.iter().enumerate() {
        assert_eq!(sim.value(tap), i == 39, "tap {i} after 40 cycles");
    }
}

#[test]
fn event_driven_never_evaluates_more_gates_than_oblivious() {
    for case in 0..20u64 {
        let mut rng = Rng::new(0xC0FF_EE00_0000_0000 | case);
        let netlist = Arc::new(random_netlist(&mut rng, true));
        let primary = netlist.primary_inputs();
        let power = PowerConfig::date2000_defaults();
        let mut ev = Simulator::with_kernel(Arc::clone(&netlist), power.clone(), SimKernel::EventDriven)
            .expect("valid");
        let mut ob =
            Simulator::with_kernel(Arc::clone(&netlist), power, SimKernel::Oblivious).expect("valid");
        for _ in 0..30 {
            for &p in &primary {
                let v = rng.bool_with(0.5);
                ev.set_input(p, v);
                ob.set_input(p, v);
            }
            assert_eq!(ev.step().to_bits(), ob.step().to_bits());
        }
        assert!(
            ev.gate_evals() <= ob.gate_evals(),
            "case {case}: event-driven did more work ({} vs {})",
            ev.gate_evals(),
            ob.gate_evals()
        );
        assert_eq!(ev.gate_events(), ob.gate_events());
    }
}

#[test]
fn env_escape_hatches_select_kernels() {
    // Own-process integration test: safe to touch the environment (the
    // sibling tests in this binary pin kernels explicitly and never
    // read it).
    let mut comb = Netlist::new();
    let a = comb.input();
    comb.gate(GateKind::Not, vec![a]);
    let mut seq = Netlist::new();
    let d = seq.input();
    seq.dff(d, false);
    let kernels = |value: &str| {
        std::env::set_var("GATESIM_KERNEL", value);
        [&comb, &seq].map(|n| {
            Simulator::with_shared(Arc::new(n.clone()), PowerConfig::date2000_defaults())
                .map(|sim| sim.kernel())
        })
    };
    // Empty means unset: the event-driven default, with or without flops.
    let event = Ok(SimKernel::EventDriven);
    assert_eq!(kernels(""), [event.clone(), event.clone()]);
    // Case-insensitive and whitespace-tolerant.
    let oblivious = Ok(SimKernel::Oblivious);
    assert_eq!(kernels(" Oblivious "), [oblivious.clone(), oblivious]);
    assert_eq!(kernels("event"), [event.clone(), event]);
    // Unknown values, the removed `simd` kernel among them, fail loudly
    // instead of silently falling back, with an error that lists exactly
    // the valid kernel names.
    for value in ["turbo", "SIMD"] {
        let [Err(ValidateNetlistError::Kernel(err)), Err(ValidateNetlistError::Kernel(_))] =
            kernels(value)
        else {
            panic!("GATESIM_KERNEL={value} must be a typed error");
        };
        assert_eq!(err.value(), value);
        let msg = err.to_string();
        for option in ["event", "oblivious"] {
            assert!(msg.contains(option), "{msg:?} must list {option:?}");
        }
        assert!(!msg.contains("simd"), "{msg:?} lists a removed kernel");
    }
    std::env::remove_var("GATESIM_KERNEL");
}
