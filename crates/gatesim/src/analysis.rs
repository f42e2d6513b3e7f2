//! Netlist analysis and cleanup passes.
//!
//! Small structural analyses a hardware power flow needs around the
//! simulator: per-kind inventories, logic depth (the levelization SIS
//! performs before simulation), static capacitance totals, and a
//! dead-logic sweep that removes gates which can never influence an
//! output or a state element.

use crate::netlist::{GateKind, NetId, Netlist, ValidateNetlistError};
use crate::power::PowerConfig;
use std::collections::BTreeMap;
use std::fmt;

/// Structural statistics of a netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Gate count per kind name.
    pub by_kind: BTreeMap<&'static str, usize>,
    /// Total gates.
    pub gates: usize,
    /// Sequential elements.
    pub dffs: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Named outputs.
    pub outputs: usize,
    /// Maximum combinational depth (levels from a source/DFF output to
    /// the deepest gate).
    pub depth: usize,
    /// Sum of all effective net capacitances, femtofarads.
    pub total_cap_ff: f64,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} gates ({} DFFs), {} inputs, {} outputs, depth {}, {:.1} fF total",
            self.gates, self.dffs, self.inputs, self.outputs, self.depth, self.total_cap_ff
        )?;
        for (k, n) in &self.by_kind {
            writeln!(f, "  {k:>7}: {n}")?;
        }
        Ok(())
    }
}

/// Computes structural statistics.
///
/// # Errors
///
/// Returns the netlist's [`ValidateNetlistError`] if it is malformed
/// (depth requires a valid levelization).
pub fn stats(netlist: &Netlist, power: &PowerConfig) -> Result<NetlistStats, ValidateNetlistError> {
    let order = netlist.validate()?;
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for kind in netlist.kinds() {
        let name = match kind {
            GateKind::Input => "input",
            GateKind::Const0 | GateKind::Const1 => "const",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
            GateKind::Dff(_) => "dff",
        };
        *by_kind.entry(name).or_insert(0) += 1;
    }
    // Depth: levels along the topological order.
    let mut level = vec![0usize; netlist.gate_count()];
    let mut depth = 0usize;
    for &id in &order {
        let l = netlist
            .fanin(id)
            .iter()
            .map(|i| level[i.0 as usize] + 1)
            .max()
            .unwrap_or(1);
        level[id.0 as usize] = l;
        depth = depth.max(l);
    }
    let caps = crate::power::CapacitanceMap::new(netlist, power);
    let total_cap_ff = (0..netlist.gate_count() as u32).map(|i| caps.cap_ff(i)).sum();
    Ok(NetlistStats {
        by_kind,
        gates: netlist.gate_count(),
        dffs: netlist.dff_count(),
        inputs: netlist.primary_inputs().len(),
        outputs: netlist.outputs().len(),
        depth,
        total_cap_ff,
    })
}

/// Removes gates that cannot reach any named output or state element,
/// returning the swept netlist and the number of gates removed.
///
/// Primary inputs are always kept (they are the module's interface).
/// Net ids are re-assigned; named outputs are preserved.
pub fn sweep_dead_logic(netlist: &Netlist) -> (Netlist, usize) {
    let n = netlist.gate_count();
    // Mark: outputs, DFFs and inputs are roots; walk fanin.
    let mut live = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    for (_, net) in netlist.outputs() {
        stack.push(net.0);
    }
    for (i, kind) in netlist.kinds().iter().enumerate() {
        if kind.is_sequential() || *kind == GateKind::Input {
            stack.push(i as u32);
        }
    }
    while let Some(i) = stack.pop() {
        if live[i as usize] {
            continue;
        }
        live[i as usize] = true;
        for inp in netlist.fanin(NetId(i)) {
            stack.push(inp.0);
        }
    }
    let removed = live.iter().filter(|&&l| !l).count();
    // Rebuild with compacted ids.
    let mut remap = vec![NetId(0); n];
    let mut out = Netlist::new();
    for (i, &kind) in netlist.kinds().iter().enumerate() {
        if !live[i] {
            continue;
        }
        // Inputs of live gates are live by construction.
        let fanin = netlist.fanin(NetId(i as u32));
        let id = out.gate(kind, fanin.iter().map(|inp| remap[inp.0 as usize]).collect());
        remap[i] = id;
    }
    for (name, net) in netlist.outputs() {
        out.mark_output(name.clone(), remap[net.0 as usize]);
    }
    (out, removed)
}

/// Propagates constants through combinational logic: gates whose output
/// is fixed regardless of the primary inputs are replaced by constants
/// (e.g. `AND(x, 0) → 0`, `XOR(c0, c1) → c0^c1`, a `MUX` with a constant
/// select collapses to the chosen input). Returns the optimized netlist
/// and the number of gates simplified.
///
/// Sequential elements and primary inputs are never touched; run
/// [`sweep_dead_logic`] afterwards to reclaim the disconnected logic.
pub fn propagate_constants(netlist: &Netlist) -> (Netlist, usize) {
    let order = match netlist.validate() {
        Ok(o) => o,
        Err(_) => return (netlist.clone(), 0),
    };
    let n = netlist.gate_count();
    // Known constant value per net (None = unknown / input / state).
    let mut konst: Vec<Option<bool>> = vec![None; n];
    for (i, kind) in netlist.kinds().iter().enumerate() {
        match kind {
            GateKind::Const0 => konst[i] = Some(false),
            GateKind::Const1 => konst[i] = Some(true),
            _ => {}
        }
    }
    let mut simplified = 0usize;
    // Replacement plan: either a constant or a passthrough to another net.
    #[derive(Clone, Copy)]
    enum Repl {
        Keep,
        Const(bool),
        Forward(NetId),
    }
    let mut plan: Vec<Repl> = vec![Repl::Keep; n];
    for &id in &order {
        let (kind, fanin) = (netlist.kind(id), netlist.fanin(id));
        let ins: Vec<Option<bool>> = fanin.iter().map(|i| konst[i.0 as usize]).collect();
        let _all = |v: bool| ins.iter().all(|x| *x == Some(v));
        let any = |v: bool| ins.contains(&Some(v));
        let every_known = ins.iter().all(Option::is_some);
        let value: Option<Repl> = match kind {
            GateKind::Buf => ins[0].map(Repl::Const).or(Some(Repl::Forward(fanin[0]))),
            GateKind::Not => ins[0].map(|v| Repl::Const(!v)),
            GateKind::And => {
                if any(false) {
                    Some(Repl::Const(false))
                } else if every_known {
                    Some(Repl::Const(true))
                } else {
                    None
                }
            }
            GateKind::Or => {
                if any(true) {
                    Some(Repl::Const(true))
                } else if every_known {
                    Some(Repl::Const(false))
                } else {
                    None
                }
            }
            GateKind::Nand => {
                if any(false) {
                    Some(Repl::Const(true))
                } else if every_known {
                    Some(Repl::Const(false))
                } else {
                    None
                }
            }
            GateKind::Nor => {
                if any(true) {
                    Some(Repl::Const(false))
                } else if every_known {
                    Some(Repl::Const(true))
                } else {
                    None
                }
            }
            GateKind::Xor if every_known => Some(Repl::Const(
                ins.iter().fold(false, |a, x| a ^ x.unwrap_or(false)),
            )),
            GateKind::Xnor if every_known => Some(Repl::Const(
                !ins.iter().fold(false, |a, x| a ^ x.unwrap_or(false)),
            )),
            GateKind::Mux => match ins[0] {
                Some(sel) => {
                    let chosen = if sel { fanin[1] } else { fanin[2] };
                    match konst[chosen.0 as usize] {
                        Some(v) => Some(Repl::Const(v)),
                        None => Some(Repl::Forward(chosen)),
                    }
                }
                None => None,
            },
            _ => None,
        };
        if let Some(r) = value {
            // A pure passthrough of a Buf that was already a buffer is
            // not a simplification worth counting.
            let counts = !(matches!(r, Repl::Forward(_)) && kind == GateKind::Buf);
            if counts {
                simplified += 1;
            }
            if let Repl::Const(v) = r {
                konst[id.0 as usize] = Some(v);
            }
            plan[id.0 as usize] = r;
        }
        if let Repl::Forward(src) = plan[id.0 as usize] {
            konst[id.0 as usize] = konst[src.0 as usize];
        }
    }
    // Rebuild: constants become Const gates; forwards become buffers
    // (cleaned by a later sweep); everything else is kept with inputs
    // redirected through resolved forwards.
    let resolve = |mut id: NetId| -> NetId {
        // Follow forward chains.
        let mut hops = 0;
        while let Repl::Forward(next) = plan[id.0 as usize] {
            id = next;
            hops += 1;
            assert!(hops <= n, "forward cycle");
        }
        id
    };
    let mut out = Netlist::new();
    for (i, &kind) in netlist.kinds().iter().enumerate() {
        match plan[i] {
            Repl::Const(v) => {
                out.constant(v);
            }
            Repl::Forward(_) => {
                let src = resolve(NetId(i as u32));
                out.gate(GateKind::Buf, vec![src]);
            }
            Repl::Keep => {
                let fanin = netlist.fanin(NetId(i as u32));
                out.gate(kind, fanin.iter().map(|&x| resolve(x)).collect());
            }
        }
    }
    for (name, net) in netlist.outputs() {
        out.mark_output(name.clone(), *net);
    }
    (out, simplified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus;
    use crate::sim::Simulator;

    fn power() -> PowerConfig {
        PowerConfig::date2000_defaults()
    }

    #[test]
    fn stats_of_an_adder() {
        let mut nl = Netlist::new();
        let a = bus::input_bus(&mut nl, 8);
        let b = bus::input_bus(&mut nl, 8);
        let c0 = nl.constant(false);
        let (s, _) = bus::adder(&mut nl, &a, &b, c0);
        for (i, bit) in s.nets().iter().enumerate() {
            nl.mark_output(format!("s{i}"), *bit);
        }
        let st = stats(&nl, &power()).expect("valid");
        assert_eq!(st.inputs, 16);
        assert_eq!(st.outputs, 8);
        assert_eq!(st.dffs, 0);
        assert!(st.depth >= 8, "ripple carry is at least 8 deep, got {}", st.depth);
        assert!(st.total_cap_ff > 0.0);
        assert!(st.by_kind["xor"] >= 16);
        let text = st.to_string();
        assert!(text.contains("depth"));
    }

    #[test]
    fn depth_of_a_chain() {
        let mut nl = Netlist::new();
        let mut x = nl.input();
        for _ in 0..5 {
            x = nl.gate(GateKind::Not, vec![x]);
        }
        nl.mark_output("y", x);
        let st = stats(&nl, &power()).expect("valid");
        assert_eq!(st.depth, 5); // five inverter levels past the input
    }

    #[test]
    fn sweep_removes_unreachable_logic() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let used = nl.gate(GateKind::Not, vec![a]);
        let dead1 = nl.gate(GateKind::Not, vec![a]);
        let _dead2 = nl.gate(GateKind::And, vec![dead1, a]);
        nl.mark_output("y", used);
        let (swept, removed) = sweep_dead_logic(&nl);
        assert_eq!(removed, 2);
        assert_eq!(swept.gate_count(), 2);
        assert!(swept.validate().is_ok());
        // Behavior preserved.
        let y = swept.output("y").expect("kept");
        let a2 = swept.primary_inputs()[0];
        let mut sim = Simulator::new(&swept, power()).expect("valid");
        sim.set_input(a2, true);
        sim.step();
        assert!(!sim.value(y));
    }

    #[test]
    fn sweep_keeps_state_elements_and_their_cones() {
        let mut nl = Netlist::new();
        let d = nl.input();
        let inv = nl.gate(GateKind::Not, vec![d]);
        let _q = nl.dff(inv, false); // no output marked, but state is a root
        let (swept, removed) = sweep_dead_logic(&nl);
        assert_eq!(removed, 0);
        assert_eq!(swept.dff_count(), 1);
    }

    #[test]
    fn sweep_is_idempotent() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let x = nl.gate(GateKind::Buf, vec![a]);
        let _dead = nl.gate(GateKind::Not, vec![a]);
        nl.mark_output("x", x);
        let (once, r1) = sweep_dead_logic(&nl);
        let (twice, r2) = sweep_dead_logic(&once);
        assert_eq!(r1, 1);
        assert_eq!(r2, 0);
        assert_eq!(once.gate_count(), twice.gate_count());
    }

    #[test]
    fn constants_fold_through_logic() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let zero = nl.constant(false);
        let one = nl.constant(true);
        let and0 = nl.gate(GateKind::And, vec![a, zero]); // -> 0
        let or1 = nl.gate(GateKind::Or, vec![a, one]); // -> 1
        let x = nl.gate(GateKind::Xor, vec![zero, one]); // -> 1
        let live = nl.gate(GateKind::Xor, vec![a, and0]); // -> xor(a, 0): kept
        nl.mark_output("and0", and0);
        nl.mark_output("or1", or1);
        nl.mark_output("x", x);
        nl.mark_output("live", live);
        let (opt, n) = propagate_constants(&nl);
        assert!(n >= 3, "three gates fold, got {n}");
        assert!(opt.validate().is_ok());
        // Behavior preserved for both input values.
        let cfg = power();
        let mut s0 = Simulator::new(&nl, cfg.clone()).expect("valid");
        let mut s1 = Simulator::new(&opt, cfg).expect("valid");
        for v in [false, true] {
            s0.set_input(nl.primary_inputs()[0], v);
            s1.set_input(opt.primary_inputs()[0], v);
            s0.step();
            s1.step();
            for (name, net) in nl.outputs() {
                assert_eq!(
                    s0.value(*net),
                    s1.value(opt.output(name).expect("kept")),
                    "{name} at a={v}"
                );
            }
        }
    }

    #[test]
    fn mux_with_constant_select_collapses() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let sel = nl.constant(true);
        let m = nl.gate(GateKind::Mux, vec![sel, a, b]);
        nl.mark_output("m", m);
        let (opt, n) = propagate_constants(&nl);
        assert_eq!(n, 1);
        // The mux became a buffer of `a`.
        let mut sim = Simulator::new(&opt, power()).expect("valid");
        let inputs = opt.primary_inputs();
        sim.set_input(inputs[0], true);
        sim.set_input(inputs[1], false);
        sim.step();
        assert!(sim.value(opt.output("m").expect("kept")));
    }

    #[test]
    fn propagation_then_sweep_shrinks_constant_cones() {
        // A 4-bit adder with one constant operand: after folding and
        // sweeping, the carry chain partially evaporates.
        let mut nl = Netlist::new();
        let a = bus::input_bus(&mut nl, 4);
        let zero = bus::const_bus(&mut nl, 4, 0);
        let c0 = nl.constant(false);
        let (s, _) = bus::adder(&mut nl, &a, &zero, c0);
        for (i, bit) in s.nets().iter().enumerate() {
            nl.mark_output(format!("s{i}"), *bit);
        }
        let (folded, nf) = propagate_constants(&nl);
        let (swept, _) = sweep_dead_logic(&folded);
        assert!(nf > 0);
        assert!(swept.gate_count() < nl.gate_count());
        // x + 0 == x for all 16 inputs.
        let mut sim = Simulator::new(&swept, power()).expect("valid");
        let ins = swept.primary_inputs();
        for v in 0..16u64 {
            sim.set_input_bus(&ins, v);
            sim.step();
            let got = (0..4).fold(0u64, |acc, i| {
                acc | ((sim.value(swept.output(&format!("s{i}")).expect("kept")) as u64) << i)
            });
            assert_eq!(got, v, "identity add for {v}");
        }
    }

    #[test]
    fn propagation_never_touches_state() {
        let mut nl = Netlist::new();
        let zero = nl.constant(false);
        let q = nl.dff(zero, true); // constant D, but state stays a DFF
        nl.mark_output("q", q);
        let (opt, _) = propagate_constants(&nl);
        assert_eq!(opt.dff_count(), 1);
    }

    #[test]
    fn sweep_reduces_capacitance_and_energy() {
        // Dead toggling logic costs simulation energy; sweeping it must not
        // change outputs but removes the cost.
        let mut nl = Netlist::new();
        let a = nl.input();
        let keep = nl.gate(GateKind::Buf, vec![a]);
        // A dead 8-gate chain toggling with `a`.
        let mut x = a;
        for _ in 0..8 {
            x = nl.gate(GateKind::Not, vec![x]);
        }
        nl.mark_output("y", keep);
        let (swept, removed) = sweep_dead_logic(&nl);
        assert_eq!(removed, 8);
        let run = |n: &Netlist| {
            let mut sim = Simulator::new(n, power()).expect("valid");
            let input = n.primary_inputs()[0];
            let mut e = 0.0;
            for i in 0..10u64 {
                sim.set_input(input, i % 2 == 0);
                e += sim.step();
            }
            (e, sim.value(n.output("y").expect("y")))
        };
        let (e_full, y_full) = run(&nl);
        let (e_swept, y_swept) = run(&swept);
        assert_eq!(y_full, y_swept);
        assert!(e_swept < e_full);
    }
}
