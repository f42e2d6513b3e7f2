//! Randomized (seeded, deterministic) tests over generated netlists:
//! BLIF round-trips and the dead-logic sweep must preserve observable
//! behavior for *any* structurally valid design, not just the
//! handcrafted ones. Formerly property-based; now driven by the in-repo
//! deterministic PRNG so the suite builds offline.

use detrand::Rng;
use gatesim::{analysis, blif, GateKind, NetId, Netlist, PowerConfig, Simulator};

/// Builds a random structurally valid netlist (gates only reference
/// earlier nets, so the result is always a DAG).
fn gen_netlist(rng: &mut Rng) -> (Netlist, u32) {
    let n_inputs = rng.u64_in(2, 6) as u32;
    let n_gates = rng.usize_in(1, 40);
    let n_outputs = rng.u64_in(1, 4) as u8;
    let mut nl = Netlist::new();
    let inputs: Vec<NetId> = (0..n_inputs).map(|_| nl.input()).collect();
    let _ = &inputs;
    for _ in 0..n_gates {
        let avail = nl.gate_count() as u64;
        let kind_sel = rng.u64_in(0, 10);
        let a = rng.u64_in(0, avail);
        let b = rng.u64_in(0, avail);
        let c = rng.u64_in(0, avail);
        let pick = |x: u64| NetId(x as u32);
        match kind_sel {
            0 => {
                nl.gate(GateKind::Not, vec![pick(a)]);
            }
            1 => {
                nl.gate(GateKind::Buf, vec![pick(a)]);
            }
            2 => {
                nl.gate(GateKind::And, vec![pick(a), pick(b)]);
            }
            3 => {
                nl.gate(GateKind::Or, vec![pick(a), pick(b)]);
            }
            4 => {
                nl.gate(GateKind::Xor, vec![pick(a), pick(b)]);
            }
            5 => {
                nl.gate(GateKind::Nand, vec![pick(a), pick(b)]);
            }
            6 => {
                nl.gate(GateKind::Nor, vec![pick(a), pick(b)]);
            }
            7 => {
                nl.gate(GateKind::Xnor, vec![pick(a), pick(b)]);
            }
            8 => {
                nl.gate(GateKind::Mux, vec![pick(a), pick(b), pick(c)]);
            }
            _ => {
                nl.dff(pick(a), a.is_multiple_of(2));
            }
        }
    }
    let total = nl.gate_count() as u32;
    for k in 0..n_outputs {
        let net = NetId((total - 1).saturating_sub(k as u32));
        nl.mark_output(format!("o{k}"), net);
    }
    assert!(nl.validate().is_ok(), "generated netlist must validate");
    (nl, n_inputs)
}

/// Drives both netlists with the same stimulus and compares the named
/// outputs cycle by cycle.
fn equivalent(a: &Netlist, b: &Netlist, n_inputs: u32, seed: u64) -> bool {
    let cfg = PowerConfig::date2000_defaults();
    let mut sa = Simulator::new(a, cfg.clone()).expect("a valid");
    let mut sb = Simulator::new(b, cfg).expect("b valid");
    let ia = a.primary_inputs();
    let ib = b.primary_inputs();
    let mut x = seed | 1;
    for _ in 0..24 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (x >> 32) & ((1u64 << n_inputs) - 1);
        sa.set_input_bus(&ia, v);
        sb.set_input_bus(&ib, v);
        sa.step();
        sb.step();
        for (name, net) in a.outputs() {
            let other = b.output(name).expect("output preserved");
            if sa.value(*net) != sb.value(other) {
                return false;
            }
        }
    }
    true
}

/// BLIF round-trips preserve gate counts and observable behavior.
#[test]
fn blif_roundtrip_preserves_behavior() {
    let mut rng = Rng::new(0x0E71_0001);
    for case in 0..40 {
        let (nl, n_inputs) = gen_netlist(&mut rng);
        let seed = rng.next_u64();
        let text = blif::to_blif(&nl, "rand");
        let back = blif::from_blif(&text).expect("round-trip parses");
        assert_eq!(back.gate_count(), nl.gate_count(), "case {case}");
        assert_eq!(back.dff_count(), nl.dff_count(), "case {case}");
        assert!(equivalent(&nl, &back, n_inputs, seed), "case {case}");
    }
}

/// Sweeping dead logic preserves the behavior of every named output
/// and never grows the netlist.
#[test]
fn sweep_preserves_observable_behavior() {
    let mut rng = Rng::new(0x0E71_0002);
    for case in 0..40 {
        let (nl, n_inputs) = gen_netlist(&mut rng);
        let seed = rng.next_u64();
        let (swept, removed) = analysis::sweep_dead_logic(&nl);
        assert!(swept.gate_count() + removed == nl.gate_count(), "case {case}");
        assert!(swept.validate().is_ok(), "case {case}");
        assert!(equivalent(&nl, &swept, n_inputs, seed), "case {case}");
    }
}

/// Constant propagation preserves observable behavior and never
/// increases the gate count after a sweep.
#[test]
fn constant_propagation_preserves_behavior() {
    let mut rng = Rng::new(0x0E71_0003);
    for case in 0..40 {
        let (nl, n_inputs) = gen_netlist(&mut rng);
        let seed = rng.next_u64();
        let (folded, _) = analysis::propagate_constants(&nl);
        assert!(folded.validate().is_ok(), "case {case}");
        assert!(equivalent(&nl, &folded, n_inputs, seed), "case {case}");
        let (cleaned, _) = analysis::sweep_dead_logic(&folded);
        assert!(cleaned.gate_count() <= nl.gate_count(), "case {case}");
        assert!(equivalent(&nl, &cleaned, n_inputs, seed), "case {case}");
    }
}

/// Statistics never fail on valid netlists, and depth is bounded by
/// the combinational gate count.
#[test]
fn stats_are_sane() {
    let mut rng = Rng::new(0x0E71_0004);
    for case in 0..40 {
        let (nl, _) = gen_netlist(&mut rng);
        let st = analysis::stats(&nl, &PowerConfig::date2000_defaults()).expect("valid");
        assert_eq!(st.gates, nl.gate_count(), "case {case}");
        assert!(st.depth <= st.gates, "case {case}");
        assert!(st.total_cap_ff >= 0.0, "case {case}");
        assert_eq!(st.dffs, nl.dff_count(), "case {case}");
    }
}

/// Simulation energy is non-negative and deterministic for any
/// netlist and stimulus.
#[test]
fn simulation_energy_nonnegative_and_deterministic() {
    let mut rng = Rng::new(0x0E71_0005);
    for case in 0..40 {
        let (nl, n_inputs) = gen_netlist(&mut rng);
        let seed = rng.next_u64();
        let run = || {
            let mut sim = Simulator::new(&nl, PowerConfig::date2000_defaults()).expect("valid");
            let inputs = nl.primary_inputs();
            let mut x = seed | 1;
            let mut total = 0.0;
            for _ in 0..16 {
                x = x.wrapping_mul(48271) % 0x7FFF_FFFF;
                sim.set_input_bus(&inputs, x & ((1u64 << n_inputs) - 1));
                let e = sim.step();
                assert!(e >= 0.0, "case {case}");
                total += e;
            }
            total
        };
        assert_eq!(run().to_bits(), run().to_bits(), "case {case}");
    }
}
