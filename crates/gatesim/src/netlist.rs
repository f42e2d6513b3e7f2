//! Gate-level netlist intermediate representation.
//!
//! A [`Netlist`] is a flat array of [`Gate`]s; the output net of gate *i*
//! is [`NetId`]`(i)`. Primary inputs are `Input` gates whose value the
//! simulator forces each cycle; sequential state is held in `Dff` gates
//! that sample their data input on the (implicit) clock edge.

use crate::sim::ParseKernelError;
use std::fmt;

/// Identifier of a net — the output of the gate with the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (value forced by the simulator).
    Input,
    /// Constant 0.
    Const0,
    /// Constant 1.
    Const1,
    /// Buffer.
    Buf,
    /// Inverter.
    Not,
    /// N-ary AND.
    And,
    /// N-ary OR.
    Or,
    /// N-ary NAND.
    Nand,
    /// N-ary NOR.
    Nor,
    /// 2-input XOR (n-ary = parity).
    Xor,
    /// 2-input XNOR (n-ary = inverted parity).
    Xnor,
    /// 2:1 multiplexer: inputs `[sel, a, b]`, output = sel ? a : b.
    Mux,
    /// D flip-flop: input `[d]`; samples on the clock edge. The `bool` is
    /// the reset/initial value.
    Dff(bool),
}

impl GateKind {
    /// Whether this kind is a state element.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff(_))
    }

    /// Whether this kind takes no inputs.
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// Intrinsic output capacitance in femtofarads, before fanout loading
    /// (typical 0.25µm standard-cell figures; the absolute scale cancels
    /// out of the paper's speedup/ranking results).
    pub fn intrinsic_cap_ff(self) -> f64 {
        match self {
            GateKind::Input => 2.0,
            GateKind::Const0 | GateKind::Const1 => 0.0,
            GateKind::Buf => 3.0,
            GateKind::Not => 2.0,
            GateKind::And | GateKind::Or => 4.0,
            GateKind::Nand | GateKind::Nor => 3.0,
            GateKind::Xor | GateKind::Xnor => 6.0,
            GateKind::Mux => 7.0,
            GateKind::Dff(_) => 10.0,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "input",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
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
        f.write_str(s)
    }
}

/// One gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Input nets, in positional order (see [`GateKind`] for conventions).
    pub inputs: Vec<NetId>,
}

/// Errors detected by [`Netlist::validate`], and by simulator
/// construction over a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateNetlistError {
    /// A gate references a net that does not exist.
    DanglingNet {
        /// The referencing gate.
        gate: NetId,
        /// The missing input net.
        input: NetId,
    },
    /// A gate has the wrong number of inputs for its kind.
    BadArity {
        /// The offending gate.
        gate: NetId,
        /// Its kind.
        kind: GateKind,
        /// How many inputs it has.
        got: usize,
    },
    /// The combinational part of the netlist has a cycle through the given
    /// gate (cycles must be broken by DFFs).
    CombinationalCycle(NetId),
    /// The `GATESIM_KERNEL` environment override named an unknown
    /// kernel, so a simulator honoring it cannot be constructed.
    Kernel(ParseKernelError),
    /// The windowed kernel ([`crate::SimKernel::Simd`]) was forced onto
    /// a netlist with flops; it runs only netlists without any.
    WindowedWithFlops {
        /// DFFs in the netlist.
        dffs: usize,
    },
}

impl From<ParseKernelError> for ValidateNetlistError {
    fn from(e: ParseKernelError) -> Self {
        ValidateNetlistError::Kernel(e)
    }
}

impl fmt::Display for ValidateNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateNetlistError::DanglingNet { gate, input } => {
                write!(f, "gate {gate} reads nonexistent net {input}")
            }
            ValidateNetlistError::BadArity { gate, kind, got } => {
                write!(f, "gate {gate} of kind {kind} has invalid arity {got}")
            }
            ValidateNetlistError::CombinationalCycle(g) => {
                write!(f, "combinational cycle through gate {g}")
            }
            ValidateNetlistError::Kernel(e) => e.fmt(f),
            ValidateNetlistError::WindowedWithFlops { dffs } => write!(
                f,
                "the windowed (simd) gate kernel runs only netlists without \
                 flops, and this one has {dffs}"
            ),
        }
    }
}

impl std::error::Error for ValidateNetlistError {}

/// A flat gate-level netlist (see module docs).
///
/// # Examples
///
/// ```
/// use gatesim::{Netlist, GateKind};
///
/// let mut n = Netlist::new();
/// let a = n.input();
/// let b = n.input();
/// let x = n.gate(GateKind::Xor, vec![a, b]);
/// n.mark_output("sum", x);
/// assert_eq!(n.gate_count(), 3);
/// n.validate()?;
/// # Ok::<(), gatesim::ValidateNetlistError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Adds a gate and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the arity is statically wrong for `kind` (sources take 0
    /// inputs, `Buf`/`Not`/`Dff` take 1, `Mux` takes 3, others ≥ 1).
    pub fn gate(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        let ok = match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => inputs.is_empty(),
            GateKind::Buf | GateKind::Not | GateKind::Dff(_) => inputs.len() == 1,
            GateKind::Mux => inputs.len() == 3,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => !inputs.is_empty(),
            GateKind::Xor | GateKind::Xnor => !inputs.is_empty(),
        };
        assert!(ok, "gate kind {kind} cannot take {} inputs", inputs.len());
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate { kind, inputs });
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self) -> NetId {
        self.gate(GateKind::Input, vec![])
    }

    /// Adds a constant.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.gate(
            if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            vec![],
        )
    }

    /// Adds a D flip-flop with the given initial value.
    pub fn dff(&mut self, d: NetId, init: bool) -> NetId {
        self.gate(GateKind::Dff(init), vec![d])
    }

    /// Adds a *wire*: a buffer whose driver is connected later with
    /// [`drive`](Netlist::drive). Until driven, the wire references
    /// itself, which [`validate`](Netlist::validate) reports as a
    /// combinational cycle — so forgetting to drive a wire cannot go
    /// unnoticed.
    pub fn wire(&mut self) -> NetId {
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind: GateKind::Buf,
            inputs: vec![id],
        });
        id
    }

    /// Connects a previously created [`wire`](Netlist::wire) to its
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a buffer (only wires may be re-driven).
    pub fn drive(&mut self, wire: NetId, src: NetId) {
        let g = &mut self.gates[wire.0 as usize];
        assert_eq!(g.kind, GateKind::Buf, "only wires (buffers) can be driven");
        g.inputs[0] = src;
    }

    /// Names a net as a primary output.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// The named outputs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Looks up an output by name.
    pub fn output(&self, name: &str) -> Option<NetId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }

    /// The gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of sequential elements.
    pub fn dff_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind.is_sequential())
            .count()
    }

    /// Ids of the primary inputs, in creation order.
    pub fn primary_inputs(&self) -> Vec<NetId> {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind == GateKind::Input)
            .map(|(i, _)| NetId(i as u32))
            .collect()
    }

    /// Fanout count of each net.
    pub fn fanouts(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for &i in &g.inputs {
                f[i.0 as usize] += 1;
            }
        }
        f
    }

    /// Checks referential integrity, arity, and combinational acyclicity;
    /// returns the topological evaluation order of combinational gates.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateNetlistError`] found.
    pub fn validate(&self) -> Result<Vec<NetId>, ValidateNetlistError> {
        let n = self.gates.len() as u32;
        for (i, g) in self.gates.iter().enumerate() {
            let gid = NetId(i as u32);
            for &inp in &g.inputs {
                if inp.0 >= n {
                    return Err(ValidateNetlistError::DanglingNet {
                        gate: gid,
                        input: inp,
                    });
                }
            }
            let ok = match g.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => g.inputs.is_empty(),
                GateKind::Buf | GateKind::Not | GateKind::Dff(_) => g.inputs.len() == 1,
                GateKind::Mux => g.inputs.len() == 3,
                _ => !g.inputs.is_empty(),
            };
            if !ok {
                return Err(ValidateNetlistError::BadArity {
                    gate: gid,
                    kind: g.kind,
                    got: g.inputs.len(),
                });
            }
        }
        // Kahn topological sort over combinational edges only: DFF outputs
        // and sources have no combinational dependencies.
        let mut indeg = vec![0u32; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() || g.kind.is_source() {
                continue;
            }
            indeg[i] = g
                .inputs
                .iter()
                .filter(|inp| {
                    let src = &self.gates[inp.0 as usize];
                    !(src.kind.is_sequential() || src.kind.is_source())
                })
                .count() as u32;
        }
        // Combinational fanout adjacency.
        let mut order = Vec::new();
        let mut ready: Vec<u32> = (0..self.gates.len() as u32)
            .filter(|&i| {
                let k = self.gates[i as usize].kind;
                !(k.is_sequential() || k.is_source()) && indeg[i as usize] == 0
            })
            .collect();
        ready.reverse(); // pop from the end, keep ascending tendency
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() || g.kind.is_source() {
                continue;
            }
            for &inp in &g.inputs {
                let src = &self.gates[inp.0 as usize];
                if !(src.kind.is_sequential() || src.kind.is_source()) {
                    fanout[inp.0 as usize].push(i as u32);
                }
            }
        }
        while let Some(i) = ready.pop() {
            order.push(NetId(i));
            for &succ in &fanout[i as usize] {
                indeg[succ as usize] -= 1;
                if indeg[succ as usize] == 0 {
                    ready.push(succ);
                }
            }
        }
        let comb_total = self
            .gates
            .iter()
            .filter(|g| !(g.kind.is_sequential() || g.kind.is_source()))
            .count();
        if order.len() != comb_total {
            // Some combinational gate never reached indegree 0: cycle.
            let cyclic = (0..self.gates.len() as u32)
                .find(|&i| {
                    let k = self.gates[i as usize].kind;
                    !(k.is_sequential() || k.is_source()) && indeg[i as usize] > 0
                })
                .unwrap_or(0);
            return Err(ValidateNetlistError::CombinationalCycle(NetId(cyclic)));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_half_adder() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let sum = n.gate(GateKind::Xor, vec![a, b]);
        let carry = n.gate(GateKind::And, vec![a, b]);
        n.mark_output("sum", sum);
        n.mark_output("carry", carry);
        assert_eq!(n.gate_count(), 4);
        assert_eq!(n.dff_count(), 0);
        assert_eq!(n.primary_inputs(), vec![a, b]);
        assert_eq!(n.output("sum"), Some(sum));
        assert_eq!(n.output("nope"), None);
        let order = n.validate().expect("valid");
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn fanout_counting() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        let _y = n.gate(GateKind::And, vec![a, x]);
        let f = n.fanouts();
        assert_eq!(f[a.0 as usize], 2);
        assert_eq!(f[x.0 as usize], 1);
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = dff(not q) — a toggle flop: legal because the DFF breaks
        // the loop. The inverter forward-references the DFF's net id.
        let mut n = Netlist::new();
        let inv = n.gate(GateKind::Not, vec![NetId(1)]); // forward ref to dff
        let q = n.dff(inv, false);
        assert_eq!(q, NetId(1));
        let order = n.validate().expect("valid: dff breaks the loop");
        assert_eq!(order, vec![inv]);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new();
        // gate 0 reads gate 1, gate 1 reads gate 0 — no DFF.
        let g0 = n.gate(GateKind::Not, vec![NetId(1)]);
        let _g1 = n.gate(GateKind::Not, vec![g0]);
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn dangling_reference_detected() {
        let mut n = Netlist::new();
        n.gate(GateKind::Not, vec![NetId(42)]);
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::DanglingNet { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn wrong_arity_panics_at_build() {
        let mut n = Netlist::new();
        let a = n.input();
        n.gate(GateKind::Mux, vec![a]);
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        let y = n.gate(GateKind::Not, vec![x]);
        let z = n.gate(GateKind::And, vec![x, y]);
        let order = n.validate().expect("valid");
        let pos = |id: NetId| order.iter().position(|&o| o == id).expect("in order");
        assert!(pos(x) < pos(y));
        assert!(pos(y) < pos(z));
    }

    #[test]
    fn intrinsic_caps_are_positive_for_logic() {
        for k in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Dff(false),
        ] {
            assert!(k.intrinsic_cap_ff() > 0.0, "{k} must have cap");
        }
    }
}
