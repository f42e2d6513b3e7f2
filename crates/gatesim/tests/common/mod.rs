//! The differential fuzz's random netlists, shared with the
//! sweep-level lane fuzz of `co-estimation` (which includes this file
//! by path, since integration tests link separately).

use detrand::Rng;
use gatesim::{GateKind, NetId, Netlist};

/// Builds a random valid netlist: inputs and constants first, then a
/// mix of 10–59 gates, or 65–300 in one case of three (fan-ins drawn
/// from already-built nets, keeping the combinational part acyclic, a
/// net sometimes read twice by one gate) and, if `flops`, DFFs whose
/// D input may reference any earlier net — including other flop outputs
/// directly, the shift-register case that exercises simultaneous edge
/// sampling — or, for some, any net at all: sequential feedback loops,
/// some of which oscillate while the inputs hold.
pub fn random_netlist(rng: &mut Rng, flops: bool) -> Netlist {
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = Vec::new();
    for _ in 0..rng.usize_in(1, 5) {
        nets.push(n.input());
    }
    if rng.bool_with(0.7) {
        nets.push(n.constant(true));
    }
    if rng.bool_with(0.5) {
        nets.push(n.constant(false));
    }
    let n_gates = if rng.bool_with(1.0 / 3.0) {
        rng.usize_in(65, 301)
    } else {
        rng.usize_in(10, 60)
    };
    let total = nets.len() + n_gates;
    for _ in 0..n_gates {
        let pick = rng.usize_in(0, 10);
        let id = match pick {
            0 if flops => {
                let d = if rng.bool_with(0.3) {
                    // Every loop iteration adds one net, so the net ids
                    // reach `total - 1`; the flop's own id is among them.
                    NetId(rng.usize_in(nets.len(), total) as u32)
                } else {
                    *rng.choose(&nets)
                };
                n.dff(d, rng.bool_with(0.5))
            }
            1 => n.gate(GateKind::Buf, vec![*rng.choose(&nets)]),
            2 => n.gate(GateKind::Not, vec![*rng.choose(&nets)]),
            3 => {
                let sel = *rng.choose(&nets);
                let a = *rng.choose(&nets);
                let b = *rng.choose(&nets);
                n.gate(GateKind::Mux, vec![sel, a, b])
            }
            _ => {
                let kind = *rng.choose(&[
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xor,
                    GateKind::Xnor,
                ]);
                let arity = rng.usize_in(1, 4);
                let mut ins: Vec<NetId> = (0..arity).map(|_| *rng.choose(&nets)).collect();
                if arity > 1 && rng.bool_with(0.2) {
                    ins[1] = ins[0];
                }
                n.gate(kind, ins)
            }
        };
        nets.push(id);
    }
    n.mark_output("last", *nets.last().expect("nonempty"));
    n
}
