//! The lockstep multi-stream simulator, generic over the lane width.
//!
//! The software analogue of hardware-accelerated power estimation
//! (Coburn/Ravi/Raghunathan): a net's value across up to 64 independent
//! stimulus streams is one `u64` *lane word*, and every gate evaluation
//! is a single word operation (`&`, `|`, `^`, `!`, and
//! `b ^ (s & (a ^ b))` for a mux). The [`crate::simd::LaneWord`] trait
//! widens the same scheme to 128/256/512 lanes per word op.
//!
//! [`MultiLaneSim`] packs *independent streams* into each lane word —
//! one per lane — and steps them in lockstep; sequential feedback never
//! limits the batch because the lanes share nothing, which is what makes
//! word-level evaluation pay off on state-dense netlists. Each cycle
//! walks the validated topological order of the netlist's gates and
//! evaluates each through the crate's one gate evaluator, reading its
//! fan-ins straight from the netlist's CSR. Each lane is
//! bit-identical to a scalar [`crate::Simulator`] run of the same stream,
//! including the per-cycle float accumulation order and the seed's
//! constant-init quirk. [`LaneSim`] is its classic 64-stream `u64`
//! instance; [`crate::SimdLaneSim`] erases the width and scales to 512
//! streams.

use crate::netlist::{NetId, Netlist, ValidateNetlistError};
use crate::power::{EnergyReport, NetEnergies, PowerConfig};
use crate::sim::SimPlan;
use crate::simd::LaneWord;
use std::sync::Arc;

/// Bit-planes of the bit-sliced per-lane toggle counters in
/// [`MultiLaneSim`]: plane `k` holds bit `k` of every lane's running
/// count, so counts up to `2^TOGGLE_PLANES - 1` live entirely in word
/// ops; wraps past the top plane spill into a per-lane overflow array,
/// allocated at the first wrap. Eight planes keep a wrap (a whole cache
/// line of spill traffic) down to once per 256 toggles of a net, so a
/// run shorter than 256 cycles never allocates the spill.
const TOGGLE_PLANES: usize = 8;

/// A lockstep simulator of *independent* stimulus streams over one
/// shared netlist — one stream per lane of the lane word `W`, so a
/// `u64` word carries 64 streams and a [`crate::simd::W256`] word 256.
///
/// Every cycle evaluates every combinational gate once, as one word op
/// in the plan's topological order (oblivious-style), and records each
/// net's toggle word as it overwrites the net, so the per-lane energy
/// accumulation order —
/// clock tree, then toggled nets ascending by net id, then DFF edges
/// ascending by gate order — is the scalar kernels' order exactly, and
/// each lane's [`EnergyReport`] is bit-identical to a scalar run.
///
/// # Examples
///
/// ```
/// use gatesim::{GateKind, LaneSim, Netlist, PowerConfig};
/// use std::sync::Arc;
///
/// let mut n = Netlist::new();
/// let a = n.input();
/// let x = n.gate(GateKind::Not, vec![a]);
/// n.mark_output("x", x);
/// let mut sim = LaneSim::new(Arc::new(n), PowerConfig::date2000_defaults(), 2)?;
/// sim.set_input(0, a, true); // stream 0 raises `a`, stream 1 holds low
/// sim.step();
/// assert!(!sim.value(x, 0) && sim.value(x, 1));
/// # Ok::<(), gatesim::ValidateNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiLaneSim<W: LaneWord> {
    /// Topological order, input and DFF lists, and reset state — the
    /// same plan a scalar [`crate::Simulator`] is built from.
    plan: Arc<SimPlan>,
    /// Switch energy per net and the clock charge — the charge drain
    /// reads it per toggled net.
    energies: NetEnergies,
    lanes: usize,
    lane_mask: W,
    /// One bit per net: is it a primary input? `set_input` and
    /// `set_input_lanes` validate against this instead of indexing the
    /// full gate array — the check runs on every forcing, and the
    /// bitmap stays cache-resident where the gate records do not.
    input_mask: Vec<u64>,
    values: Vec<W>,
    inputs: Vec<W>,
    /// One bit per net: toggled this step. The input-apply and eval
    /// sweeps record toggles here as they overwrite each net's settled
    /// value (the old word is already in hand at that moment), and the
    /// charge-and-count drain clears set bits in ascending net order —
    /// the scalar kernels' float accumulation order — without a
    /// separate whole-array `prev` diff scan.
    toggled_mask: Vec<u64>,
    /// The toggle word recorded for each net set in `toggled_mask`
    /// (stale entries for unset nets are never read).
    toggle_scratch: Vec<W>,
    edge_sample: Vec<W>,
    /// Per-step, per-lane energy scratch, padded to the full `W::BITS`
    /// slots so the charge loop can slice one whole 64-slot chunk per
    /// constituent word (lanes past `lanes` are never set in a masked
    /// toggle word and stay at the clock-fill value).
    energy: Vec<f64>,
    /// Bit-sliced per-lane toggle counters, plane-major: plane `k` of
    /// net `i` lives at `k * nets + i`, so the drain, visiting nets in
    /// ascending order, walks each plane's dense row forward instead of
    /// striding a `TOGGLE_PLANES`-word block per net. Each lane's count
    /// has bit `k` in plane `k`; a toggle is a ripple-carry increment
    /// in word ops rather than a per-lane read-modify-write over a
    /// `nets × lanes` array.
    toggle_planes: Vec<W>,
    /// Overflow spill, `nets × lanes`: whole-plane wraps land here as
    /// `2^TOGGLE_PLANES` per-lane increments (touched once every
    /// `2^TOGGLE_PLANES` toggles of a net, so its cache traffic is
    /// negligible). Wide words allocate it at their first wrap and it
    /// stays empty until then; at `u64` width it is the whole counter
    /// and is allocated up front.
    toggle_wraps: Vec<u64>,
    reports: Vec<EnergyReport>,
    cycle: u64,
    gate_evals: u64,
    gate_eval_slots: u64,
}

/// The classic 64-stream lockstep simulator: [`MultiLaneSim`] over a
/// `u64` lane word.
pub type LaneSim = MultiLaneSim<u64>;

impl<W: LaneWord> MultiLaneSim<W> {
    /// Builds a lane simulator for `lanes` independent streams
    /// (`1..=W::BITS`), validating the netlist. All streams start from
    /// the same reset state a scalar [`crate::Simulator`] starts from.
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds the word's lane count.
    pub fn new(
        netlist: Arc<Netlist>,
        config: PowerConfig,
        lanes: usize,
    ) -> Result<Self, ValidateNetlistError> {
        assert!(
            (1..=W::BITS as usize).contains(&lanes),
            "1..={} lanes per word",
            W::BITS
        );
        let plan = Arc::new(SimPlan::new(netlist)?);
        let energies = NetEnergies::new(plan.netlist(), &config);
        let n = plan.netlist().gate_count();
        let mut input_mask = vec![0u64; n.div_ceil(64)];
        for &i in plan.input_ids() {
            input_mask[i as usize / 64] |= 1u64 << (i % 64);
        }
        // Every stream starts from the scalar reset state, constant-init
        // quirk included (see `SimPlan`).
        let values = plan.reset_values().iter().map(|&v| W::splat(v)).collect();
        Ok(MultiLaneSim {
            plan,
            energies,
            lanes,
            lane_mask: W::low_mask(lanes as u32),
            input_mask,
            values,
            inputs: vec![W::ZERO; n],
            toggled_mask: vec![0; n.div_ceil(64)],
            toggle_scratch: vec![W::ZERO; n],
            edge_sample: Vec::new(),
            energy: vec![0.0; W::BITS as usize],
            // The narrow charge path counts directly in `toggle_wraps`.
            toggle_planes: if W::BITS == 64 {
                Vec::new()
            } else {
                vec![W::ZERO; n * TOGGLE_PLANES]
            },
            toggle_wraps: if W::BITS == 64 {
                vec![0; n * lanes]
            } else {
                Vec::new()
            },
            reports: vec![EnergyReport::default(); lanes],
            cycle: 0,
            gate_evals: 0,
            gate_eval_slots: 0,
        })
    }

    /// The shared netlist this simulator evaluates.
    pub fn netlist(&self) -> &Arc<Netlist> {
        self.plan.netlist()
    }

    /// Number of independent streams in flight.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Forces a primary input for one stream from the next cycle on.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate or `lane` is out of range.
    pub fn set_input(&mut self, lane: usize, net: NetId, value: bool) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let i = net.0 as usize;
        assert!(
            self.input_mask[i / 64] >> (i % 64) & 1 == 1,
            "{net} is not a primary input"
        );
        let w = &mut self.inputs[i];
        *w = w.with_bit(lane as u32, value);
    }

    /// Forces a primary input in many streams at once, from the next
    /// cycle on: every lane set in `mask` takes its bit of `value`, and
    /// the other lanes hold. Both slices hold the lane word's
    /// constituent `u64`s (lane `j` is bit `j % 64` of element
    /// `j / 64`); elements past a slice's end read as zero, and lanes
    /// past [`Self::lanes`] are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate.
    pub fn set_input_lanes(&mut self, net: NetId, mask: &[u64], value: &[u64]) {
        let i = net.0 as usize;
        assert!(
            self.input_mask[i / 64] >> (i % 64) & 1 == 1,
            "{net} is not a primary input"
        );
        let word = |s: &[u64]| W::from_fn(|k| s.get(k).copied().unwrap_or(0));
        let m = word(mask).and(self.lane_mask);
        let w = &mut self.inputs[i];
        *w = w.and(m.not()).or(word(value).and(m));
    }

    /// The settled value of a net in one stream.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn value(&self, net: NetId, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.values[net.0 as usize].bit(lane as u32)
    }

    /// Total toggle count of a net in one stream so far.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn toggle_count(&self, net: NetId, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let spill = self.toggle_wraps.get(net.0 as usize * self.lanes + lane);
        let mut count = spill.copied().unwrap_or(0);
        if W::BITS != 64 {
            let n = self.plan.netlist().gate_count();
            for k in 0..TOGGLE_PLANES {
                count +=
                    (self.toggle_planes[k * n + net.0 as usize].bit(lane as u32) as u64) << k;
            }
        }
        count
    }

    /// Every stream's per-net toggle counts and settled values:
    /// `toggles[lane][net]` is [`Self::toggle_count`]`(net, lane)` and
    /// `values[lane][net]` is [`Self::value`]`(net, lane)`.
    ///
    /// One pass over the nets reads each net's counter planes, spill row
    /// and value word once and scatters them to every lane, where the
    /// per-lane accessors would read all eight planes for every
    /// `(net, lane)` bit.
    pub fn demux(&self) -> (Vec<Vec<u64>>, Vec<Vec<bool>>) {
        let n = self.plan.netlist().gate_count();
        let lanes = self.lanes;
        let mut toggles: Vec<Vec<u64>> = (0..lanes).map(|_| vec![0; n]).collect();
        let mut values: Vec<Vec<bool>> = (0..lanes).map(|_| vec![false; n]).collect();
        let planes = if W::BITS == 64 { 0 } else { TOGGLE_PLANES };
        for i in 0..n {
            self.values[i]
                .and(self.lane_mask)
                .for_each_lane(|l| values[l as usize][i] = true);
            for k in 0..planes {
                self.toggle_planes[k * n + i].for_each_lane(|l| toggles[l as usize][i] += 1 << k);
            }
            if let Some(spill) = self.toggle_wraps.get(i * lanes..(i + 1) * lanes) {
                for (t, &s) in toggles.iter_mut().zip(spill) {
                    t[i] += s;
                }
            }
        }
        (toggles, values)
    }

    /// One stream's accumulated cycle-by-cycle energy report.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn report(&self, lane: usize) -> &EnergyReport {
        &self.reports[lane]
    }

    /// Cycles simulated so far (all streams advance together).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Combinational *word* evaluations so far — each covers every lane,
    /// so the per-stream-cycle equivalent is `gate_evals × lanes`
    /// (which is exactly [`Self::gate_eval_slots`]).
    pub fn gate_evals(&self) -> u64 {
        self.gate_evals
    }

    /// Committed `(gate, stream, cycle)` evaluation slots:
    /// `gate_evals × lanes`, since every word evaluation settles one
    /// cycle of every stream. Comparable across kernels — scalar runs
    /// of the same streams under the oblivious kernel would report this
    /// many `gate_evals` between them.
    pub fn gate_eval_slots(&self) -> u64 {
        self.gate_eval_slots
    }

    /// Net value changes observed so far, summed over all streams
    /// (directly comparable to the sum of scalar runs' `gate_events`).
    ///
    /// Derived from the toggle counters on demand — the same integer
    /// total an incremental tally would hold, without spending a
    /// (software, on baseline x86-64) popcount per charged net in the
    /// hot loop. Costs a pass over the counter arrays, so query it at
    /// batch granularity rather than per cycle.
    pub fn gate_events(&self) -> u64 {
        // Wrap spills are stored pre-scaled (`+= 1 << TOGGLE_PLANES`
        // per spill; `+= 1` per toggle at `u64` width), so the raw sum
        // is already in toggle units.
        let mut total: u64 = self.toggle_wraps.iter().sum();
        if W::BITS != 64 {
            let n = self.plan.netlist().gate_count();
            for k in 0..TOGGLE_PLANES {
                let bits: u64 = self.toggle_planes[k * n..(k + 1) * n]
                    .iter()
                    .map(|p| p.count_ones() as u64)
                    .sum();
                total += bits << k;
            }
        }
        total
    }

    /// Simulates one clock cycle of every stream in lockstep.
    pub fn step(&mut self) {
        // 1. Apply inputs, diffing against the old settled values.
        for &i in self.plan.input_ids() {
            let i = i as usize;
            let v = self.inputs[i];
            let t = v.xor(self.values[i]).and(self.lane_mask);
            self.values[i] = v;
            if !t.is_zero() {
                self.toggled_mask[i / 64] |= 1u64 << (i % 64);
                self.toggle_scratch[i] = t;
            }
        }
        // 2. One word pass in topological order settles all streams at
        //    once. Each net is written by exactly one gate, so the value
        //    overwritten here *is* the previous settled state — toggles
        //    are recorded in the same pass, sparing a separate
        //    whole-array diff scan. The toggle recording is branchless:
        //    whether a net toggles is close to a coin flip at wide lane
        //    counts, so a conditional store would mispredict constantly;
        //    the unconditional scratch store is a cheap streaming write.
        let (netlist, order) = (&**self.plan.netlist(), self.plan.order());
        let (values, lane_mask) = (&mut self.values[..], self.lane_mask);
        let (mask, scratch) = (&mut self.toggled_mask[..], &mut self.toggle_scratch[..]);
        for &id in order {
            let out = id.0 as usize;
            let v = netlist.kind(id).eval(netlist.fanin(id), |i| values[i.0 as usize]);
            let t = v.xor(values[out]).and(lane_mask);
            values[out] = v;
            mask[out / 64] |= u64::from(!t.is_zero()) << (out % 64);
            scratch[out] = t;
        }
        self.gate_evals += order.len() as u64;
        self.gate_eval_slots += order.len() as u64 * self.lanes as u64;
        // 3. One drain charges and counts each recorded toggle, in
        //    ascending net id — the scalar kernels' float accumulation
        //    order, regardless of which pass recorded it — and clears
        //    the mask as it goes.
        let clock = self.energies.clock_j;
        for e in &mut self.energy {
            *e = clock;
        }
        for wi in 0..self.toggled_mask.len() {
            let mut m = std::mem::take(&mut self.toggled_mask[wi]);
            while m != 0 {
                let i = wi * 64 + m.trailing_zeros() as usize;
                m &= m.wrapping_sub(1);
                self.charge_and_count(i, self.toggle_scratch[i]);
            }
        }
        // 4. Clock edge: all D words sampled simultaneously, then
        //    committed in ascending gate order, each edge charged and
        //    counted as it commits.
        self.edge_sample.clear();
        for &(_, d) in self.plan.dffs() {
            self.edge_sample.push(self.values[d as usize]);
        }
        for k in 0..self.plan.dffs().len() {
            let q = self.plan.dffs()[k].0 as usize;
            let v = self.edge_sample[k];
            let t = v.xor(self.values[q]).and(self.lane_mask);
            if !t.is_zero() {
                self.charge_and_count(q, t);
            }
            self.values[q] = v;
        }
        for (l, r) in self.reports.iter_mut().enumerate() {
            r.per_cycle_j.push(self.energy[l]);
        }
        self.cycle += 1;
    }

    /// Runs `n` lockstep cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Charges net `i`'s switch energy to every lane set in its toggle
    /// word `t`, then adds one to each such lane's toggle count.
    ///
    /// The charge takes one 64-slot chunk per constituent word: the
    /// chunk bound is checked once per word and `tz & 63` keeps the
    /// per-lane indexing provably in range, so the inner loop is pure
    /// load/add/store.
    ///
    /// Wide words count by rippling `t` up all of net `i`'s counter
    /// planes (plane `k` at `k * nets + i`), without a branch: a
    /// toggled net of a 256-lane batch usually toggles in dozens of
    /// lanes, so its carry dies at plane 2, 3 or 4 as often as not
    /// (mc_lanes: 21 %, 42 %, 23 %), and a loop that stopped there
    /// mispredicted its exit. A carry out of the top plane spills at
    /// once.
    #[inline]
    fn charge_and_count(&mut self, i: usize, t: W) {
        let se = self.energies.switch_j[i];
        let energy = &mut self.energy;
        t.for_each_word(|k, mut w| {
            let chunk = &mut energy[k * 64..k * 64 + 64];
            while w != 0 {
                chunk[(w.trailing_zeros() & 63) as usize] += se;
                w &= w.wrapping_sub(1);
            }
        });
        let lanes = self.lanes;
        if W::BITS == 64 {
            // Narrow words see few set lanes per step, so a direct
            // per-lane bump (into the overflow array, which doubles as
            // the whole counter at this width) beats plane slicing.
            let row = &mut self.toggle_wraps[i * lanes..(i + 1) * lanes];
            t.for_each_lane(|l| row[l as usize] += 1);
            return;
        }
        let n = self.values.len();
        let mut carry = t;
        for k in 0..TOGGLE_PLANES {
            let plane = &mut self.toggle_planes[k * n + i];
            let p = *plane;
            *plane = p.xor(carry);
            carry = p.and(carry);
        }
        if !carry.is_zero() {
            self.spill(i, carry);
        }
    }

    /// Spills a whole-plane wrap of net `i`: `2^TOGGLE_PLANES` more
    /// toggles for every lane set in `carry` (once every 256 toggles of
    /// a net, so the scattered traffic into the wide overflow array is
    /// negligible). Allocates the spill at the first wrap.
    #[cold]
    fn spill(&mut self, i: usize, carry: W) {
        let (n, lanes) = (self.values.len(), self.lanes);
        if self.toggle_wraps.is_empty() {
            self.toggle_wraps = vec![0; n * lanes];
        }
        let row = &mut self.toggle_wraps[i * lanes..(i + 1) * lanes];
        carry.for_each_lane(|l| row[l as usize] += 1 << TOGGLE_PLANES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;
    use crate::simd::W256;

    #[test]
    fn lane_streams_are_independent() {
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        n.mark_output("x", x);
        let mut sim =
            LaneSim::new(Arc::new(n), PowerConfig::date2000_defaults(), 3).expect("valid");
        sim.set_input(1, a, true);
        sim.step();
        assert!(sim.value(x, 0));
        assert!(!sim.value(x, 1));
        assert!(sim.value(x, 2));
        assert_eq!(sim.toggle_count(a, 1), 1);
        assert_eq!(sim.toggle_count(a, 0), 0);
        assert!(sim.report(1).total_j() > sim.report(0).total_j());
    }

    #[test]
    fn wide_lane_streams_match_the_u64_instance_bitwise() {
        // The same 3 streams through the u64 word and a W256 word must
        // produce identical values, toggles, and energy floats.
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let x = n.gate(GateKind::Xor, vec![a, b]);
        let d = n.dff(x, false);
        let y = n.gate(GateKind::And, vec![x, d]);
        n.mark_output("y", y);
        let shared = Arc::new(n);
        let cfg = PowerConfig::date2000_defaults();
        let mut narrow =
            LaneSim::new(Arc::clone(&shared), cfg.clone(), 3).expect("valid");
        let mut wide =
            MultiLaneSim::<W256>::new(Arc::clone(&shared), cfg, 200).expect("valid");
        for step in 0u64..20 {
            for (l, net) in [(0usize, a), (1, b), (2, a)] {
                let v = (step.wrapping_mul(l as u64 + 3) >> 1) & 1 == 1;
                narrow.set_input(l, net, v);
                wide.set_input(l, net, v);
            }
            narrow.step();
            wide.step();
        }
        for l in 0..3 {
            assert_eq!(narrow.report(l).per_cycle_j, wide.report(l).per_cycle_j);
            for i in [a, b, d, x, y] {
                assert_eq!(narrow.toggle_count(i, l), wide.toggle_count(i, l));
                assert_eq!(narrow.value(i, l), wide.value(i, l));
            }
        }
        assert_eq!(narrow.gate_evals(), wide.gate_evals());
        assert_eq!(narrow.gate_eval_slots(), narrow.gate_evals() * 3);
        assert_eq!(wide.gate_eval_slots(), wide.gate_evals() * 200);
    }
}
