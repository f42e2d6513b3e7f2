//! Cycle-based logic simulation with toggle-count energy.
//!
//! Every kernel walks the netlist's validated topological order and
//! evaluates each gate through the crate's one gate evaluator, which is
//! generic over the value computed (a `bool` here, a lane word in the
//! lockstep lanes and the macro-op characterization pass) and reads
//! fan-ins from the netlist's CSR arrays; the plan adds no copy of them.
//! Two kernels produce bit-identical results:
//!
//! * **Event-driven** (the default, [`SimKernel::EventDriven`]): each
//!   net's combinational readers, as positions in the topological order,
//!   are derived once per netlist and shared by every instance over it;
//!   each cycle only the gates whose fan-in actually changed are
//!   re-evaluated, drained lowest position first from a dirty bitset.
//!   Toggles land in a bitset read in ascending net order — no per-cycle
//!   snapshot of the value vector and no sort.
//! * **Oblivious** ([`SimKernel::Oblivious`]): the reference path —
//!   every combinational gate is re-evaluated every cycle in
//!   topological order and toggles are found by a full before/after
//!   diff, the way the modified SIS power estimator of the paper works.
//!
//! A simulator runs the event-driven kernel unless the `GATESIM_KERNEL`
//! hatch or [`Simulator::with_kernel`] forces the oblivious one.
//!
//! Equivalence is contractual, not approximate: every kernel
//! accumulates switch energy over the toggled nets in ascending net-id
//! order and then clocks DFFs in ascending gate order — the exact float
//! operation sequence of the oblivious diff — so the kernels agree
//! to the last mantissa bit. The differential fuzz suite and the golden
//! reports enforce this.
//!
//! Every kernel charges from one energy table per netlist and
//! [`PowerConfig`]: `½·Vdd²·C` of each net, evaluated once, plus the
//! clock-tree charge. Instances of a synthesized transition share it
//! through the synthesis memo.
//!
//! Held-input runs ([`Simulator::run`]) fast-forward under the
//! event-driven kernel: once a stepped cycle changes no flop at its
//! edge, nothing can change until an input does, so each further held
//! cycle charges exactly the clock-tree energy. The kernel appends
//! that charge to the history and folds it into the returned sum one
//! cycle at a time, the order stepping would use, without evaluating a
//! gate. The oblivious kernel steps every cycle, as the reference.

use crate::netlist::{GateKind, NetId, Netlist, ValidateNetlistError};
use crate::power::{EnergyReport, NetEnergies, PowerConfig};
use crate::simd::Logic;
use std::fmt;
use std::sync::Arc;

/// Which inner loop a [`Simulator`] runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKernel {
    /// Evaluate only gates whose fan-in changed, in topological order.
    EventDriven,
    /// Re-evaluate every combinational gate every cycle (reference path).
    Oblivious,
}

/// A kernel name that parses to no known [`SimKernel`] — raised by
/// [`SimKernel::from_str`](std::str::FromStr) and by the
/// `GATESIM_KERNEL` environment hatch, instead of silently falling back
/// to a default kernel a benchmark or CI matrix did not ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError {
    value: String,
}

impl ParseKernelError {
    /// The rejected kernel name, verbatim.
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown gate-simulation kernel `{}` (expected one of: \
             event, oblivious — case-insensitive)",
            self.value
        )
    }
}

impl std::error::Error for ParseKernelError {}

impl std::str::FromStr for SimKernel {
    type Err = ParseKernelError;

    /// Parses a kernel name, case-insensitively: `event` or
    /// `oblivious`. This is the single parser behind the
    /// `GATESIM_KERNEL` hatch — tests and tools should go through it
    /// rather than re-matching strings.
    fn from_str(s: &str) -> Result<Self, ParseKernelError> {
        let t = s.trim();
        for (name, kernel) in [
            ("event", SimKernel::EventDriven),
            ("oblivious", SimKernel::Oblivious),
        ] {
            if t.eq_ignore_ascii_case(name) {
                return Ok(kernel);
            }
        }
        Err(ParseKernelError {
            value: s.to_string(),
        })
    }
}

impl SimKernel {
    /// The kernel the environment selects: `GATESIM_KERNEL=event` or
    /// `oblivious` (case-insensitive) forces that kernel; unset or empty
    /// selects the event-driven default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseKernelError`] if `GATESIM_KERNEL` is set to
    /// anything other than a known kernel name — a typo'd kernel must
    /// fail loudly, not silently fall back.
    pub(crate) fn from_env() -> Result<Self, ParseKernelError> {
        match std::env::var_os("GATESIM_KERNEL") {
            Some(v) if !v.is_empty() => {
                let s = v.to_str().ok_or_else(|| ParseKernelError {
                    value: v.to_string_lossy().into_owned(),
                })?;
                s.parse()
            }
            _ => Ok(SimKernel::EventDriven),
        }
    }
}

/// Everything simulator construction derives from the netlist alone —
/// independent of the [`PowerConfig`] and of the kernel — computed once
/// and shared by [`Arc`] among every instance over that netlist (the
/// synthesis memo keeps one per synthesized transition). Immutable:
/// instances copy `reset_values` into their own state and never write
/// back. It holds no copy of the gates: kernels read each gate's kind
/// and fan-ins from the netlist's CSR by the net ids in `order`.
#[derive(Debug)]
pub(crate) struct SimPlan {
    netlist: Arc<Netlist>,
    /// Validated topological order of the combinational gates; dirty
    /// sets are indexed by position in it.
    order: Vec<NetId>,
    /// Net `i`'s combinational readers, as ascending positions in `order`
    /// (once per pin), are `fanout_pos[fanout_off[i]..fanout_off[i + 1]]`.
    fanout_off: Vec<u32>,
    fanout_pos: Vec<u32>,
    /// Primary-input gate indices, ascending.
    input_ids: Vec<u32>,
    /// `(gate index, D-input net)` per DFF, ascending by gate index.
    dffs: Vec<(u32, u32)>,
    /// Net values after the reset settle: DFFs at their init values,
    /// inputs low, one combinational pass, then constants forced.
    reset_values: Vec<bool>,
    /// The reset settle evaluates combinational gates *before* forcing
    /// constants high, so gates downstream of a `Const1` hold stale
    /// values until the first cycle's settle — a quirk the oblivious
    /// diff charges as first-cycle toggles. These are the positions of
    /// the `Const1` readers, which the event-driven kernel marks dirty
    /// at construction to reproduce it.
    const1_fanout: Vec<u32>,
}

impl SimPlan {
    /// Validates `netlist` and derives the plan.
    pub(crate) fn new(netlist: Arc<Netlist>) -> Result<Self, ValidateNetlistError> {
        let order = netlist.validate()?;
        let n = netlist.gate_count();
        // Count each net's readers and sum the counts to run ends, then
        // fill each run from its end in descending position order, which
        // leaves `fanout_off[i]` at the run's start.
        let mut fanout_off = vec![0u32; n + 1];
        for &g in &order {
            for &i in netlist.fanin(g) {
                fanout_off[i.0 as usize] += 1;
            }
        }
        let mut total = 0;
        for o in &mut fanout_off {
            total += *o;
            *o = total;
        }
        let mut fanout_pos = vec![0u32; total as usize];
        for (p, &g) in order.iter().enumerate().rev() {
            for &i in netlist.fanin(g) {
                fanout_off[i.0 as usize] -= 1;
                fanout_pos[fanout_off[i.0 as usize] as usize] = p as u32;
            }
        }
        let mut input_ids = Vec::new();
        let mut dffs = Vec::new();
        let mut const1_fanout = Vec::new();
        let mut reset_values = vec![false; n];
        for (i, &kind) in netlist.kinds().iter().enumerate() {
            match kind {
                GateKind::Input => input_ids.push(i as u32),
                GateKind::Dff(init) => {
                    dffs.push((i as u32, netlist.fanin(NetId(i as u32))[0].0));
                    reset_values[i] = init;
                }
                GateKind::Const1 => const1_fanout.extend_from_slice(
                    &fanout_pos[fanout_off[i] as usize..fanout_off[i + 1] as usize],
                ),
                _ => {}
            }
        }
        settle_full(&netlist, &order, &mut reset_values);
        Ok(SimPlan {
            netlist,
            order,
            fanout_off,
            fanout_pos,
            input_ids,
            dffs,
            reset_values,
            const1_fanout,
        })
    }

    /// The netlist the plan was derived from.
    pub(crate) fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Validated topological order of the combinational gates.
    pub(crate) fn order(&self) -> &[NetId] {
        &self.order
    }

    /// Primary-input gate indices, ascending.
    pub(crate) fn input_ids(&self) -> &[u32] {
        &self.input_ids
    }

    /// `(gate index, D-input net)` per DFF, ascending by gate index.
    pub(crate) fn dffs(&self) -> &[(u32, u32)] {
        &self.dffs
    }

    /// Net values after the reset settle.
    pub(crate) fn reset_values(&self) -> &[bool] {
        &self.reset_values
    }
}

/// A simulation instance bound to one netlist.
///
/// The netlist and everything derived from it alone (topological order,
/// fanout, reset state) are held behind an [`Arc`], so many
/// simulator instances (e.g. one per design-space exploration point)
/// share a single immutable structure, as they share the per-net
/// switching energies of their [`PowerConfig`]; per-instance state
/// (values, toggles, energy) is always private to the instance.
///
/// # Examples
///
/// ```
/// use gatesim::{Netlist, GateKind, Simulator, PowerConfig};
///
/// let mut n = Netlist::new();
/// let a = n.input();
/// let b = n.input();
/// let x = n.gate(GateKind::Xor, vec![a, b]);
/// n.mark_output("x", x);
///
/// let mut sim = Simulator::new(&n, PowerConfig::date2000_defaults())?;
/// sim.set_input(a, true);
/// let e = sim.step();
/// assert!(sim.value(x));
/// assert!(e > 0.0); // nets toggled
/// # Ok::<(), gatesim::ValidateNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    plan: Arc<SimPlan>,
    energies: Arc<NetEnergies>,
    kernel: SimKernel,
    values: Vec<bool>,
    inputs: Vec<bool>,
    report: EnergyReport,
    toggles: Vec<u64>,
    cycle: u64,
    gate_evals: u64,
    gate_events: u64,
    // Event-driven machinery (unused under the oblivious kernel).
    /// Dirty set: one bit per combinational gate, by position in the
    /// plan's `order`. Empty between cycles except on a fresh instance.
    dirty: Vec<u64>,
    /// DFF output nets that changed at the previous clock edge; their
    /// combinational fanout must re-evaluate at the next cycle's settle.
    pending_edge: Vec<u32>,
    /// One bit per net toggled in the current cycle, cleared as it is
    /// charged.
    toggled: Vec<u64>,
    /// Scratch: D values sampled simultaneously at the clock edge.
    edge_sample: Vec<bool>,
}

impl Simulator {
    /// Builds a simulator, validating the netlist. It runs the
    /// event-driven kernel unless `GATESIM_KERNEL` forces another.
    ///
    /// All nets start at their reset values (DFF init values, inputs low,
    /// combinational logic settled accordingly).
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed, or its [`ValidateNetlistError::Kernel`] variant if
    /// `GATESIM_KERNEL` names an unknown kernel.
    pub fn new(netlist: &Netlist, config: PowerConfig) -> Result<Self, ValidateNetlistError> {
        Self::with_shared(Arc::new(netlist.clone()), config)
    }

    /// Builds a simulator over an already-shared netlist without cloning
    /// it, choosing the kernel as [`Simulator::new`] does. This is what
    /// design-space sweeps use: every exploration point holds the same
    /// `Arc<Netlist>`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::new`].
    pub fn with_shared(
        netlist: Arc<Netlist>,
        config: PowerConfig,
    ) -> Result<Self, ValidateNetlistError> {
        let kernel = SimKernel::from_env()?;
        Self::with_kernel(netlist, config, kernel)
    }

    /// Builds a simulator with an explicitly chosen kernel (differential
    /// tests and benchmarks pin both paths regardless of environment).
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed.
    pub fn with_kernel(
        netlist: Arc<Netlist>,
        config: PowerConfig,
        kernel: SimKernel,
    ) -> Result<Self, ValidateNetlistError> {
        let plan = SimPlan::new(netlist)?;
        let energies = NetEnergies::new(&plan.netlist, &config);
        Ok(Self::from_plan(Arc::new(plan), Arc::new(energies), kernel))
    }

    /// Builds an instance over a shared plan and energy table — the one
    /// construction path behind every public constructor, and all a
    /// synthesis-memo hit pays: per-instance vectors (values copied from
    /// the plan's reset state).
    pub(crate) fn from_plan(
        plan: Arc<SimPlan>,
        energies: Arc<NetEnergies>,
        kernel: SimKernel,
    ) -> Self {
        debug_assert_eq!(energies.switch_j.len(), plan.netlist.gate_count());
        let n = plan.netlist.gate_count();
        // Reproduce the constant-init quirk (see `SimPlan::const1_fanout`):
        // the event-driven kernel drains these marks at its first settle;
        // the oblivious kernel never reads them.
        let mut dirty = vec![0; plan.order.len().div_ceil(64)];
        for &p in &plan.const1_fanout {
            set_bit(&mut dirty, p as usize);
        }
        Simulator {
            energies,
            kernel,
            values: plan.reset_values.clone(),
            inputs: vec![false; n],
            report: EnergyReport::default(),
            toggles: vec![0; n],
            cycle: 0,
            gate_evals: 0,
            gate_events: 0,
            dirty,
            pending_edge: Vec::new(),
            toggled: vec![0; n.div_ceil(64)],
            edge_sample: Vec::new(),
            plan,
        }
    }

    /// The shared netlist this simulator evaluates.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.plan.netlist
    }

    /// The shared plan this instance was built from.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> &Arc<SimPlan> {
        &self.plan
    }

    /// The energy table this instance charges from.
    #[cfg(test)]
    pub(crate) fn energies(&self) -> &Arc<NetEnergies> {
        &self.energies
    }

    /// The kernel this instance was built with.
    pub fn kernel(&self) -> SimKernel {
        self.kernel
    }

    /// Combinational gate evaluations performed so far: one per gate
    /// visit per cycle. Use [`Simulator::gate_events`] for the
    /// kernel-invariant activity count.
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Net value changes observed so far (input, combinational, and DFF
    /// output toggles). Unlike [`Simulator::gate_evals`], this counter
    /// is *kernel-invariant*: bit-identical simulations produce the
    /// same toggles, so equal `gate_events` across kernels is part of
    /// the equivalence contract and cross-kernel activity comparisons
    /// (e.g. `MetricsSink` aggregates) must use it.
    pub fn gate_events(&self) -> u64 {
        self.gate_events
    }

    /// Forces a primary input for subsequent cycles.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert_eq!(
            self.plan.netlist.kind(net),
            GateKind::Input,
            "{net} is not a primary input"
        );
        self.inputs[net.0 as usize] = value;
    }

    /// Forces a whole bus of inputs from the low bits of `value`
    /// (bit *i* of `value` drives `nets[i]`).
    pub fn set_input_bus(&mut self, nets: &[NetId], value: u64) {
        for (i, &n) in nets.iter().enumerate() {
            self.set_input(n, (value >> i) & 1 == 1);
        }
    }

    /// The settled value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0 as usize]
    }

    /// Reads a bus of nets as an integer (bit *i* from `nets[i]`).
    pub fn value_bus(&self, nets: &[NetId]) -> u64 {
        nets.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &n)| acc | ((self.value(n) as u64) << i))
    }

    /// Whether no cycle has been simulated yet, so the constant-init
    /// quirk's seeds (see `SimPlan::const1_fanout`) are still marked in
    /// the dirty set.
    fn is_fresh(&self) -> bool {
        self.cycle == 0
    }

    /// Whether firings of this instance can be memoized: it runs the
    /// event-driven kernel, and its netlist numbers the primary inputs
    /// `0..k` (synthesized netlists do), so the key and the post state
    /// take the inputs as whole slices.
    pub(crate) fn memoizable(&self) -> bool {
        let inputs = &self.plan.input_ids;
        self.kernel == SimKernel::EventDriven
            && inputs
                .last()
                .is_none_or(|&i| i as usize + 1 == inputs.len())
    }

    /// Appends the compact state the firing memo keys a
    /// [memoizable](Simulator::memoizable) instance on: the fresh flag,
    /// every DFF value and whether it changed at the last clock edge (one
    /// bit each, packed together), then every primary input's settled
    /// value and its forced value, eight bits per step. The
    /// [`PowerConfig`] is not in it: each memo serves one.
    ///
    /// Exact because after any cycle the combinational nets are a full
    /// settle of the pre-edge flops (the DFF values with the changed
    /// ones flipped back) and the input nets, and the dirty set is
    /// empty — except on a fresh instance, whose reset state is fixed.
    /// Together with the inputs a firing forces later, these bits
    /// determine the instance's whole future.
    pub(crate) fn pack_memo_key(&self, key: &mut Vec<u64>) {
        debug_assert!(self.memoizable());
        let plan = &*self.plan;
        let (d, k) = (plan.dffs.len(), plan.input_ids.len());
        let at = key.len();
        key.resize(at + (1 + 2 * d).div_ceil(64) + 2 * k.div_ceil(64), 0);
        let (flops, inputs) = key[at..].split_at_mut((1 + 2 * d).div_ceil(64));
        flops[0] = u64::from(self.is_fresh());
        self.pack_flops(flops, 1 + d, Some(1));
        let (settled, forced) = inputs.split_at_mut(k.div_ceil(64));
        pack_bools(&self.values[..k], settled);
        pack_bools(&self.inputs[..k], forced);
    }

    /// Sets bit `edge_at + j` of `out` for each DFF `j` whose output
    /// changed at the last clock edge (`pending_edge` lists those outputs
    /// in DFF order) and, given `value_at`, bit `value_at + j` for each
    /// DFF whose output is high.
    fn pack_flops(&self, out: &mut [u64], edge_at: usize, value_at: Option<usize>) {
        let mut changed = self.pending_edge.iter().peekable();
        for (j, &(q, _)) in self.plan.dffs.iter().enumerate() {
            if let Some(at) = value_at {
                let v = at + j;
                out[v / 64] |= u64::from(self.values[q as usize]) << (v % 64);
            }
            if changed.next_if_eq(&&q).is_some() {
                let e = edge_at + j;
                out[e / 64] |= 1 << (e % 64);
            }
        }
        debug_assert!(changed.next().is_none(), "pending_edge not in DFF order");
    }

    /// Words [`Simulator::pack_memo_post`] writes.
    pub(crate) fn memo_post_words(&self) -> usize {
        let plan = &*self.plan;
        self.values.len().div_ceil(64)
            + plan.input_ids.len().div_ceil(64)
            + plan.dffs.len().div_ceil(64)
    }

    /// Writes the state a memo hit restores after a firing into `out`
    /// ([`Simulator::memo_post_words`] words): every net value and the
    /// forced inputs, eight bits per step, then which DFFs changed at the
    /// last edge.
    pub(crate) fn pack_memo_post(&self, out: &mut [u64]) {
        let k = self.plan.input_ids.len();
        let (values, rest) = out.split_at_mut(self.values.len().div_ceil(64));
        let (inputs, edge) = rest.split_at_mut(k.div_ceil(64));
        pack_bools(&self.values, values);
        pack_bools(&self.inputs[..k], inputs);
        edge.fill(0);
        self.pack_flops(edge, 0, None);
    }

    /// Restores a state written by [`Simulator::pack_memo_post`] in place
    /// of simulating the `cycles` it summarizes, and books those cycles
    /// and their `events` net changes. Gate evaluations stay unbooked
    /// (none were performed), as do the per-net toggle counters and the
    /// per-cycle energy history.
    pub(crate) fn restore_memo_post(&mut self, post: &[u64], cycles: u64, events: u64) {
        debug_assert!(self.memoizable());
        if self.is_fresh() {
            // The restored state already includes the quirk's settle.
            self.dirty.fill(0);
        }
        let plan = &*self.plan;
        let k = plan.input_ids.len();
        let (values, rest) = post.split_at(self.values.len().div_ceil(64));
        let (inputs, edge) = rest.split_at(k.div_ceil(64));
        unpack_bools(values, &mut self.values);
        unpack_bools(inputs, &mut self.inputs[..k]);
        self.pending_edge.clear();
        for (j, &(q, _)) in plan.dffs.iter().enumerate() {
            if bit_at(edge, j) {
                self.pending_edge.push(q);
            }
        }
        self.cycle += cycles;
        self.gate_events += events;
    }

    /// Drops the per-cycle energy history, keeping its capacity. For
    /// owners that read each cycle's energy as it is produced and need
    /// no history beyond it.
    pub(crate) fn clear_history(&mut self) {
        self.report.per_cycle_j.clear();
    }

    /// Simulates one clock cycle with the currently forced inputs and
    /// returns the cycle's energy in joules.
    ///
    /// A cycle consists of: apply inputs → settle combinational logic →
    /// charge toggled nets + clock tree → clock DFFs.
    pub fn step(&mut self) -> f64 {
        match self.kernel {
            SimKernel::EventDriven => self.step_event(),
            SimKernel::Oblivious => self.step_oblivious(),
        }
    }

    /// Runs `n` cycles with held inputs and returns the energy over
    /// them, in joules: bit for bit the sum of `n` [`Simulator::step`]
    /// calls, folded cycle by cycle from −0.0 as `Iterator::sum` folds.
    ///
    /// * The event-driven kernel steps until a cycle ends with no flop
    ///   changed at its edge, then fast-forwards the rest. That is exact:
    ///   after a stepped cycle the dirty set is drained and every
    ///   input net equals its (held) forced value, so with no flop
    ///   changed, each later cycle schedules no gate, toggles nothing
    ///   and charges exactly the clock-tree energy. The fast-forward
    ///   appends that energy to the history and folds it into the sum
    ///   once per cycle, in order, and advances the cycle count; the
    ///   activity counters already stand where stepping would leave
    ///   them.
    /// * The oblivious kernel, the reference, steps every cycle.
    pub fn run(&mut self, n: u64) -> f64 {
        match self.kernel {
            SimKernel::EventDriven => {
                let mut energy = -0.0;
                let mut left = n;
                while left > 0 {
                    energy += self.step_event();
                    left -= 1;
                    if self.pending_edge.is_empty() {
                        let clock = self.energies.clock_j;
                        for _ in 0..left {
                            energy += clock;
                        }
                        let history = &mut self.report.per_cycle_j;
                        history.resize(history.len() + left as usize, clock);
                        self.cycle += left;
                        break;
                    }
                }
                energy
            }
            SimKernel::Oblivious => (0..n).map(|_| self.step_oblivious()).sum(),
        }
    }

    /// The accumulated cycle-by-cycle energy report.
    pub fn report(&self) -> &EnergyReport {
        &self.report
    }

    /// Clock-tree energy charged every cycle regardless of activity,
    /// joules.
    pub fn clock_energy_per_cycle_j(&self) -> f64 {
        self.energies.clock_j
    }

    /// Total toggle count of a net so far.
    pub fn toggle_count(&self, net: NetId) -> u64 {
        self.toggles[net.0 as usize]
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Event-driven cycle: mark the readers of the changed inputs and
    /// flops dirty, drain the dirty set in topological order (each gate
    /// is evaluated at most once, after all its fan-ins are final), then
    /// charge the toggled nets in the oblivious kernel's accumulation
    /// order.
    fn step_event(&mut self) -> f64 {
        // Slices and iterators over the plan and the instance's vectors,
        // not `field[k]` reads in the loops: the optimizer cannot prove
        // that the stores below leave the `Vec` headers alone, so it
        // would reload them per iteration.
        let plan = &*self.plan;
        let (order, netlist) = (&plan.order[..], &*plan.netlist);
        let (off, pos) = (&plan.fanout_off[..], &plan.fanout_pos[..]);
        let switch_j = &self.energies.switch_j[..];
        let (values, dirty) = (&mut self.values[..], &mut self.dirty[..]);
        let (toggled, toggles) = (&mut self.toggled[..], &mut self.toggles[..]);
        // DFF outputs that changed at the previous edge drive this
        // cycle's settle, alongside any changed primary inputs.
        for &q in &self.pending_edge {
            mark_readers(dirty, off, pos, q as usize);
        }
        self.pending_edge.clear();
        for &i in &plan.input_ids {
            let i = i as usize;
            if values[i] != self.inputs[i] {
                values[i] = self.inputs[i];
                set_bit(toggled, i);
                mark_readers(dirty, off, pos, i);
            }
        }

        // Topological settle: a gate only ever marks readers at later
        // positions, so one ascending drain evaluates everything dirty.
        // Each word is drained from a local copy: a reader in the same
        // word lands above the bit just popped, so it is ORed into the
        // copy and popped in turn; a reader in a later word goes to the
        // array, which the drain has not reached yet.
        let mut evals = 0;
        for w in 0..dirty.len() {
            let mut bits = std::mem::take(&mut dirty[w]);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                evals += 1;
                let id = order[p];
                let v = netlist
                    .kind(id)
                    .eval(netlist.fanin(id), |i| values[i.0 as usize]);
                let g = id.0 as usize;
                if v != values[g] {
                    values[g] = v;
                    set_bit(toggled, g);
                    for &r in &pos[off[g] as usize..off[g + 1] as usize] {
                        let r = r as usize;
                        debug_assert!(r > p, "reader at {r} does not follow {p}");
                        if r / 64 == w {
                            bits |= 1 << (r % 64);
                        } else {
                            set_bit(dirty, r);
                        }
                    }
                }
            }
        }
        self.gate_evals += evals;

        // Energy: clock tree first, then toggled nets ascending by net
        // id — the float order of the oblivious before/after diff.
        let mut energy = self.energies.clock_j;
        let mut events = 0;
        for (w, word) in toggled.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                toggles[i] += 1;
                events += 1;
                energy += switch_j[i];
            }
        }
        self.gate_events += events;

        // Clock edge: sample all D inputs first (DFF-to-DFF chains shift
        // simultaneously), then commit in ascending gate order.
        self.edge_sample.clear();
        for &(_, d) in &plan.dffs {
            self.edge_sample.push(values[d as usize]);
        }
        for (k, &(q, _)) in plan.dffs.iter().enumerate() {
            let v = self.edge_sample[k];
            if values[q as usize] != v {
                toggles[q as usize] += 1;
                energy += switch_j[q as usize];
                values[q as usize] = v;
                self.gate_events += 1;
                self.pending_edge.push(q);
            }
        }
        self.cycle += 1;
        self.report.per_cycle_j.push(energy);
        energy
    }

    /// Oblivious cycle: full value snapshot, full settle, full diff —
    /// the reference the other kernels are tested against.
    fn step_oblivious(&mut self) -> f64 {
        let before = self.values.clone();
        let netlist = &*self.plan.netlist;
        // 1. Apply inputs.
        for (i, &kind) in netlist.kinds().iter().enumerate() {
            if kind == GateKind::Input {
                self.values[i] = self.inputs[i];
            }
        }
        // 2. Settle combinational logic.
        settle_full(netlist, &self.plan.order, &mut self.values);
        self.gate_evals += self.plan.order.len() as u64;
        // 3. Energy from toggles against the previous settled state.
        let switch_j = &self.energies.switch_j[..];
        let mut energy = self.energies.clock_j;
        for (i, (&now, &was)) in self.values.iter().zip(&before).enumerate() {
            if now != was {
                self.toggles[i] += 1;
                energy += switch_j[i];
                self.gate_events += 1;
            }
        }
        // 4. Clock edge: DFFs sample their D inputs simultaneously. A Q
        //    output that changes switches its net's capacitance too (its
        //    downstream effect is charged at the next cycle's settle).
        let sampled: Vec<(usize, bool)> = netlist
            .kinds()
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_sequential())
            .map(|(i, _)| (i, self.values[netlist.fanin(NetId(i as u32))[0].0 as usize]))
            .collect();
        for (i, v) in sampled {
            if self.values[i] != v {
                self.toggles[i] += 1;
                energy += switch_j[i];
                self.gate_events += 1;
            }
            self.values[i] = v;
        }
        self.cycle += 1;
        self.report.per_cycle_j.push(energy);
        energy
    }
}

/// Propagates values through all combinational gates (topological
/// `order`), leaving DFF outputs and inputs untouched, then forces the
/// constants to their values. Generic over [`Logic`]: a lane word
/// settles every lane at once.
pub(crate) fn settle_full<L: Logic>(netlist: &Netlist, order: &[NetId], values: &mut [L]) {
    for &id in order {
        values[id.0 as usize] = netlist.kind(id).eval(netlist.fanin(id), |i| values[i.0 as usize]);
    }
    for (i, kind) in netlist.kinds().iter().enumerate() {
        match kind {
            GateKind::Const0 => values[i] = L::ZERO,
            GateKind::Const1 => values[i] = L::ONES,
            _ => {}
        }
    }
}

/// Sets bit `k` of a bitset (bit `k % 64` of word `k / 64`).
fn set_bit(bits: &mut [u64], k: usize) {
    bits[k / 64] |= 1 << (k % 64);
}

/// Marks net `net`'s combinational readers dirty, from the plan's CSR
/// pair (`off`, `pos`).
fn mark_readers(dirty: &mut [u64], off: &[u32], pos: &[u32], net: usize) {
    for &p in &pos[off[net] as usize..off[net + 1] as usize] {
        set_bit(dirty, p as usize);
    }
}

/// Bit `k` of a bit-packed word slice: bit `k % 64` of word `k / 64`.
fn bit_at(words: &[u64], k: usize) -> bool {
    (words[k / 64] >> (k % 64)) & 1 == 1
}

/// Packs `bits` into `out` (`bits.len().div_ceil(64)` words), bit `k`
/// at bit `k % 64` of word `k / 64`, eight at a time: eight `bool`s read
/// as one little-endian word hold a 0 or 1 per byte, and multiplying by
/// `0x0102_0408_1020_4080` gathers byte `i`'s bit into bit `56 + i`
/// without a carry.
fn pack_bools(bits: &[bool], out: &mut [u64]) {
    for (word, chunk) in out.iter_mut().zip(bits.chunks(64)) {
        let (bytes, rest) = chunk.as_chunks::<8>();
        let tail = rest.iter().rev().fold(0, |w, &b| w << 1 | u64::from(b));
        *word = bytes.iter().rev().fold(tail, |w, b| {
            let x = u64::from_le_bytes(b.map(u8::from));
            w << 8 | x.wrapping_mul(0x0102_0408_1020_4080) >> 56
        });
    }
}

/// Unpacks words written by [`pack_bools`] into `bits`, eight at a time.
fn unpack_bools(words: &[u64], bits: &mut [bool]) {
    for (chunk, &w) in bits.chunks_mut(64).zip(words) {
        let (bytes, rest) = chunk.as_chunks_mut::<8>();
        for (j, b) in bytes.iter_mut().enumerate() {
            *b = SPREAD[usize::from((w >> (8 * j)) as u8)];
        }
        let base = 8 * bytes.len();
        for (j, b) in rest.iter_mut().enumerate() {
            *b = (w >> (base + j)) & 1 == 1;
        }
    }
}

/// `SPREAD[b][i]` is bit `i` of the byte `b`.
static SPREAD: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b][i] = (b >> i) & 1 == 1;
            i += 1;
        }
        b += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn cfg() -> PowerConfig {
        PowerConfig::date2000_defaults()
    }

    #[test]
    fn bools_pack_and_unpack_eight_at_a_time() {
        // Every length across the byte and word seams, in the bit
        // positions `bit_at` reads, with nothing set past the last.
        for n in 0..=200usize {
            let bits: Vec<bool> = (0..n).map(|i| (i * 0x9E37_79B9) >> 7 & 1 == 1).collect();
            let mut words = vec![u64::MAX; n.div_ceil(64)];
            pack_bools(&bits, &mut words);
            for (k, &b) in bits.iter().enumerate() {
                assert_eq!(bit_at(&words, k), b, "n = {n}, bit {k}");
            }
            if n % 64 != 0 {
                assert_eq!(words[n / 64] >> (n % 64), 0, "n = {n}");
            }
            let mut back = vec![false; n];
            unpack_bools(&words, &mut back);
            assert_eq!(back, bits, "n = {n}");
        }
    }

    #[test]
    fn gate_truth_tables() {
        // Every combinational kind at every legal arity up to 4 over the
        // inputs a0..a3, plus gates that read one net twice, over all 16
        // input assignments, checked against definitions written here:
        // every kernel shares one evaluator, so their agreement cannot
        // catch a wrong gate function, and this test can.
        fn expected(kind: GateKind, ins: &[bool]) -> bool {
            let all = ins.iter().all(|&v| v);
            let any = ins.iter().any(|&v| v);
            let parity = ins.iter().filter(|&&v| v).count() % 2 == 1;
            match kind {
                GateKind::Buf => ins[0],
                GateKind::Not => !ins[0],
                GateKind::And => all,
                GateKind::Or => any,
                GateKind::Nand => !all,
                GateKind::Nor => !any,
                GateKind::Xor => parity,
                GateKind::Xnor => !parity,
                GateKind::Mux => {
                    if ins[0] {
                        ins[1]
                    } else {
                        ins[2]
                    }
                }
                other => unreachable!("{other} is not combinational"),
            }
        }
        let mut n = Netlist::new();
        let a: Vec<NetId> = (0..4).map(|_| n.input()).collect();
        let mut specs = vec![
            (GateKind::Buf, vec![a[0]]),
            (GateKind::Not, vec![a[0]]),
            (GateKind::Mux, vec![a[0], a[1], a[2]]),
            (GateKind::Mux, vec![a[0], a[0], a[1]]),
            (GateKind::Xor, vec![a[1], a[0], a[1]]),
        ];
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for arity in 1..=4 {
                specs.push((kind, a[..arity].to_vec()));
            }
        }
        let outs: Vec<NetId> = specs.iter().map(|(k, f)| n.gate(*k, f.clone())).collect();
        // Assignment `m` drives input `j` with bit `j` of `m`.
        let want = |m: usize, (kind, fanin): &(GateKind, Vec<NetId>)| {
            let ins: Vec<bool> = fanin.iter().map(|f| (m >> f.0) & 1 == 1).collect();
            expected(*kind, &ins)
        };
        let shared = Arc::new(n);
        for kernel in [SimKernel::EventDriven, SimKernel::Oblivious] {
            let mut sim =
                Simulator::with_kernel(Arc::clone(&shared), cfg(), kernel).expect("valid");
            for m in 0..16 {
                sim.set_input_bus(&a, m as u64);
                sim.step();
                for (spec, &out) in specs.iter().zip(&outs) {
                    assert_eq!(sim.value(out), want(m, spec), "{kernel:?} {spec:?} at {m:04b}");
                }
            }
        }
        // One assignment per lane of a lockstep simulator.
        let mut lanes = crate::LaneSim::new(Arc::clone(&shared), cfg(), 16).expect("valid");
        for m in 0..16 {
            for (j, &net) in a.iter().enumerate() {
                lanes.set_input(m, net, (m >> j) & 1 == 1);
            }
        }
        lanes.step();
        for m in 0..16 {
            for (spec, &out) in specs.iter().zip(&outs) {
                assert_eq!(lanes.value(out, m), want(m, spec), "lane {spec:?} at {m:04b}");
            }
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut n = Netlist::new();
        let d = n.input();
        let q = n.dff(d, false);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input(d, true);
        sim.step();
        // During the cycle the old Q (reset value) is visible; after the
        // edge the new value is latched.
        assert!(sim.value(q));
        sim.set_input(d, false);
        sim.step();
        assert!(!sim.value(q));
    }

    #[test]
    fn toggle_flop_oscillates() {
        let mut n = Netlist::new();
        let inv = n.gate(GateKind::Not, vec![NetId(1)]);
        let q = n.dff(inv, false);
        for kernel in [SimKernel::EventDriven, SimKernel::Oblivious] {
            let mut sim =
                Simulator::with_kernel(Arc::new(n.clone()), cfg(), kernel).expect("valid");
            let mut seen = Vec::new();
            for _ in 0..4 {
                sim.step();
                seen.push(sim.value(q));
            }
            assert_eq!(seen, vec![true, false, true, false]);
        }
    }

    #[test]
    fn energy_zero_when_nothing_toggles() {
        let mut n = Netlist::new();
        let a = n.input();
        let _x = n.gate(GateKind::Not, vec![a]);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        // No DFFs → no clock energy; inputs held → no toggles.
        let e1 = sim.step();
        assert_eq!(e1, 0.0);
        sim.set_input(a, true);
        let e2 = sim.step();
        assert!(e2 > 0.0);
        let e3 = sim.step();
        assert_eq!(e3, 0.0);
    }

    #[test]
    fn energy_scales_with_activity() {
        // A 4-bit input bus into inverters: toggling more bits costs more.
        let mut n = Netlist::new();
        let bits: Vec<NetId> = (0..4).map(|_| n.input()).collect();
        for &b in &bits {
            n.gate(GateKind::Not, vec![b]);
        }
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input_bus(&bits, 0b0001);
        let e1 = sim.step();
        sim.set_input_bus(&bits, 0b1110);
        let e4 = sim.step(); // all 4 bits flip
        assert!(e4 > e1);
        assert_eq!(sim.toggle_count(bits[0]), 2);
    }

    #[test]
    fn bus_helpers_roundtrip() {
        let mut n = Netlist::new();
        let bits: Vec<NetId> = (0..8).map(|_| n.input()).collect();
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.set_input_bus(&bits, 0xA5);
        sim.step();
        assert_eq!(sim.value_bus(&bits), 0xA5);
    }

    #[test]
    fn report_accumulates() {
        let mut n = Netlist::new();
        let d = n.input();
        let _q = n.dff(d, false);
        let mut sim = Simulator::new(&n, cfg()).expect("valid");
        sim.run(5);
        assert_eq!(sim.report().cycles(), 5);
        assert!(sim.report().total_j() > 0.0); // clock energy
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn determinism() {
        let mut n = Netlist::new();
        let a = n.input();
        let inv = n.gate(GateKind::Not, vec![NetId(2)]);
        let q = n.dff(inv, false);
        let x = n.gate(GateKind::Xor, vec![a, q]);
        n.mark_output("x", x);
        let run = || {
            let mut sim = Simulator::new(&n, cfg()).expect("valid");
            let mut trace = Vec::new();
            for i in 0..20u64 {
                sim.set_input(a, i % 3 == 0);
                let e = sim.step();
                trace.push((sim.value(x), e.to_bits()));
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn with_shared_does_not_clone_the_netlist() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        n.mark_output("x", x);
        let shared = Arc::new(n);
        let sim = Simulator::with_shared(Arc::clone(&shared), cfg()).expect("valid");
        assert!(Arc::ptr_eq(sim.netlist(), &shared));
    }

    #[test]
    fn kernels_agree_bitwise_on_a_small_design() {
        // Mixed netlist: constants (init quirk), a DFF-to-DFF shift
        // chain, and reconvergent combinational logic.
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let one = n.constant(true);
        let zero = n.constant(false);
        let x = n.gate(GateKind::Xor, vec![a, one]);
        let y = n.gate(GateKind::And, vec![x, b]);
        let q1 = n.dff(y, false);
        let q2 = n.dff(q1, true);
        let m = n.gate(GateKind::Mux, vec![q2, x, zero]);
        n.mark_output("m", m);
        let shared = Arc::new(n);
        let run = |kernel| {
            let mut sim =
                Simulator::with_kernel(Arc::clone(&shared), cfg(), kernel).expect("valid");
            let mut trace = Vec::new();
            for i in 0..32u64 {
                sim.set_input(a, i % 3 == 0);
                sim.set_input(b, i % 5 != 0);
                let e = sim.step();
                let vals: Vec<bool> = (0..shared.gate_count())
                    .map(|k| sim.value(NetId(k as u32)))
                    .collect();
                trace.push((e.to_bits(), vals));
            }
            let toggles: Vec<u64> = (0..shared.gate_count())
                .map(|k| sim.toggle_count(NetId(k as u32)))
                .collect();
            (trace, toggles, sim.report().total_j().to_bits())
        };
        assert_eq!(run(SimKernel::EventDriven), run(SimKernel::Oblivious));
    }

    #[test]
    fn event_kernel_evaluates_fewer_gates_when_inputs_hold() {
        let mut n = Netlist::new();
        let a = n.input();
        let mut prev = a;
        for _ in 0..16 {
            prev = n.gate(GateKind::Not, vec![prev]);
        }
        n.mark_output("out", prev);
        let shared = Arc::new(n);
        let mut ev = Simulator::with_kernel(Arc::clone(&shared), cfg(), SimKernel::EventDriven)
            .expect("valid");
        let mut ob = Simulator::with_kernel(Arc::clone(&shared), cfg(), SimKernel::Oblivious)
            .expect("valid");
        // Inputs never change: the event kernel should evaluate nothing.
        ev.run(10);
        ob.run(10);
        assert_eq!(ev.gate_evals(), 0);
        assert_eq!(ob.gate_evals(), 16 * 10);
        assert_eq!(ev.report().total_j().to_bits(), ob.report().total_j().to_bits());
        // One input flip wakes the whole inverter chain exactly once.
        ev.set_input(a, true);
        ev.step();
        assert_eq!(ev.gate_evals(), 16);
        assert_eq!(ev.gate_events(), 17);
    }
}
