//! Gate-level netlist intermediate representation.
//!
//! A [`Netlist`] stores its gates flat: one [`GateKind`] per gate, and
//! every gate's fan-in nets in one compressed (CSR) array in net-id
//! order, so gate *i*'s fan-ins are one contiguous run
//! ([`Netlist::fanin`]) and no gate owns an allocation of its own. The
//! output net of gate *i* is [`NetId`]`(i)`. Primary inputs are `Input`
//! gates whose value the simulator forces each cycle; sequential state
//! is held in `Dff` gates that sample their data input on the (implicit)
//! clock edge.
//!
//! `GateKind::eval` is the logic function of every combinational kind,
//! generic over the value computed ([`Logic`]: a `bool`, or a lane word)
//! and over how a fan-in is read. Every simulation kernel evaluates its
//! gates through it.

use crate::sim::ParseKernelError;
use crate::simd::Logic;
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

    /// Whether a gate of this kind may read `n` fan-ins: sources none,
    /// `Buf`/`Not`/`Dff` one, `Mux` three, the n-ary kinds at least one.
    fn takes(self, n: usize) -> bool {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => n == 0,
            GateKind::Buf | GateKind::Not | GateKind::Dff(_) => n == 1,
            GateKind::Mux => n == 3,
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => n >= 1,
        }
    }

    /// The logic function of a combinational kind: its output over the
    /// `fanin` nets, each read by `read`, as a `bool` for the scalar
    /// kernels or a lane word for the lockstep lanes and the macro-op
    /// characterization pass. The crate's one gate evaluator.
    ///
    /// # Panics
    ///
    /// Panics on a source or a flop, which no kernel evaluates.
    #[inline]
    pub(crate) fn eval<V: Logic>(self, fanin: &[NetId], read: impl Fn(NetId) -> V) -> V {
        let and = || fanin.iter().fold(V::ONES, |acc, &i| acc.and(read(i)));
        let or = || fanin.iter().fold(V::ZERO, |acc, &i| acc.or(read(i)));
        let xor = || fanin.iter().fold(V::ZERO, |acc, &i| acc.xor(read(i)));
        match self {
            GateKind::Buf => read(fanin[0]),
            GateKind::Not => read(fanin[0]).not(),
            GateKind::And => and(),
            GateKind::Or => or(),
            GateKind::Nand => and().not(),
            GateKind::Nor => or().not(),
            GateKind::Xor => xor(),
            GateKind::Xnor => xor().not(),
            GateKind::Mux => {
                // sel ? a : b, as b ^ (sel & (a ^ b)).
                let (sel, a, b) = (read(fanin[0]), read(fanin[1]), read(fanin[2]));
                b.xor(sel.and(a.xor(b)))
            }
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff(_) => {
                unreachable!("{self} is not a combinational gate")
            }
        }
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
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Logic function per gate, by net id.
    kinds: Vec<GateKind>,
    /// Gate `i`'s fan-ins are `fanin[fanin_off[i]..fanin_off[i + 1]]`,
    /// in positional order (see [`GateKind`] for conventions).
    fanin_off: Vec<u32>,
    fanin: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist {
            kinds: Vec::new(),
            fanin_off: vec![0],
            fanin: Vec::new(),
            outputs: Vec::new(),
        }
    }
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
        assert!(
            kind.takes(inputs.len()),
            "gate kind {kind} cannot take {} inputs",
            inputs.len()
        );
        let id = NetId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.fanin.extend_from_slice(&inputs);
        self.fanin_off.push(self.fanin.len() as u32);
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
        let id = NetId(self.kinds.len() as u32);
        self.gate(GateKind::Buf, vec![id])
    }

    /// Connects a previously created [`wire`](Netlist::wire) to its
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a buffer (only wires may be re-driven).
    pub fn drive(&mut self, wire: NetId, src: NetId) {
        assert_eq!(
            self.kind(wire),
            GateKind::Buf,
            "only wires (buffers) can be driven"
        );
        self.fanin[self.fanin_off[wire.0 as usize] as usize] = src;
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

    /// The logic function of the gate driving `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not exist.
    #[inline]
    pub fn kind(&self, net: NetId) -> GateKind {
        self.kinds[net.0 as usize]
    }

    /// The fan-in nets of the gate driving `net`, in positional order.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not exist.
    #[inline]
    pub fn fanin(&self, net: NetId) -> &[NetId] {
        let i = net.0 as usize;
        &self.fanin[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Every gate's logic function, by net id.
    pub fn kinds(&self) -> &[GateKind] {
        &self.kinds
    }

    /// Number of gates (including inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of sequential elements.
    pub fn dff_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_sequential()).count()
    }

    /// Ids of the primary inputs, in creation order.
    pub fn primary_inputs(&self) -> Vec<NetId> {
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, &k)| k == GateKind::Input)
            .map(|(i, _)| NetId(i as u32))
            .collect()
    }

    /// Fanout count of each net.
    pub fn fanouts(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.kinds.len()];
        for &i in &self.fanin {
            f[i.0 as usize] += 1;
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
        let n = self.kinds.len();
        for (i, &kind) in self.kinds.iter().enumerate() {
            let gate = NetId(i as u32);
            let fanin = self.fanin(gate);
            if let Some(&input) = fanin.iter().find(|inp| inp.0 as usize >= n) {
                return Err(ValidateNetlistError::DanglingNet { gate, input });
            }
            if !kind.takes(fanin.len()) {
                return Err(ValidateNetlistError::BadArity {
                    gate,
                    kind,
                    got: fanin.len(),
                });
            }
        }
        // Kahn topological sort over combinational edges only: DFF outputs
        // and sources have no combinational dependencies. Each net's
        // combinational readers (ascending, once per pin) are
        // `readers[off[i]..off[i + 1]]`, a CSR pair like the fan-ins, so
        // the sort allocates no list per net.
        let comb = |i: usize| {
            let k = self.kinds[i];
            !(k.is_sequential() || k.is_source())
        };
        let comb_fanin = |i: usize| {
            let fanin = self.fanin(NetId(i as u32)).iter();
            fanin.map(|src| src.0 as usize).filter(move |&src| comb(src))
        };
        let mut indeg = vec![0u32; n];
        let mut off = vec![0u32; n + 1];
        for i in (0..n).filter(|&i| comb(i)) {
            for src in comb_fanin(i) {
                indeg[i] += 1;
                off[src] += 1;
            }
        }
        let mut total = 0;
        for o in &mut off {
            total += *o;
            *o = total;
        }
        // Fill each run from its end, readers descending, which leaves
        // `off[i]` at the run's start.
        let mut readers = vec![0u32; total as usize];
        for i in (0..n).rev().filter(|&i| comb(i)) {
            for src in comb_fanin(i) {
                off[src] -= 1;
                readers[off[src] as usize] = i as u32;
            }
        }
        let mut order = Vec::new();
        let mut ready: Vec<u32> = (0..n as u32)
            .filter(|&i| comb(i as usize) && indeg[i as usize] == 0)
            .collect();
        ready.reverse(); // pop from the end, keep ascending tendency
        while let Some(i) = ready.pop() {
            order.push(NetId(i));
            let i = i as usize;
            for &succ in &readers[off[i] as usize..off[i + 1] as usize] {
                indeg[succ as usize] -= 1;
                if indeg[succ as usize] == 0 {
                    ready.push(succ);
                }
            }
        }
        if order.len() != (0..n).filter(|&i| comb(i)).count() {
            // Some combinational gate never reached indegree 0: cycle.
            let cyclic = (0..n).find(|&i| comb(i) && indeg[i] > 0).unwrap_or(0);
            return Err(ValidateNetlistError::CombinationalCycle(NetId(
                cyclic as u32,
            )));
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
    fn driving_a_wire_rewrites_only_its_own_fanin() {
        let mut n = Netlist::new();
        let a = n.input();
        let w = n.wire();
        let x = n.gate(GateKind::And, vec![a, w]);
        assert_eq!(n.fanin(w), &[w], "an undriven wire reads itself");
        n.drive(w, a);
        assert_eq!(n.fanin(a), &[] as &[NetId]);
        assert_eq!(n.fanin(w), &[a]);
        assert_eq!(n.fanin(x), &[a, w]);
        assert_eq!(n.kinds(), &[GateKind::Input, GateKind::Buf, GateKind::And]);
        assert_eq!(n.validate().expect("valid"), vec![w, x]);
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
