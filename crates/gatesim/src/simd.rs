//! SIMD lane words: the `u64` lane word widened to `[u64; N]` vectors,
//! and the width-erased multi-stream simulator built on them.
//!
//! A lane word packs 64 lanes — 64 independent streams, or the 64
//! operand rounds of a macro-op characterization — into one `u64` and
//! pays one word op per gate visit. This module widens that word to [`Wide<W>`]: `W` consecutive
//! `u64`s treated as one `64 × W`-bit lane word, giving 128/256/512
//! lanes per op. Everything that made the 64-lane engine bit-exact
//! carries over unchanged, because every trick is a pure word-level
//! identity:
//!
//! * masked comparisons (`w & mask != splat(v) & mask`) detect lane
//!   activity;
//! * toggle words (`lane ^ ((lane << 1) | prev)`) count transitions
//!   between consecutive lanes, with the shift carrying across the
//!   `u64` boundaries of the wide word.
//!
//! The [`LaneWord`] trait abstracts exactly those operations, with
//! `u64` itself as the 64-lane instance: the lockstep
//! [`MultiLaneSim`] is one generic engine at every width. Its Boolean
//! half, [`Logic`], is also implemented by `bool`, so one gate
//! evaluator serves the scalar kernels, the lanes and the macro-op
//! characterization pass. Per-lane energy is still
//! folded in the scalar kernels' exact float order (clock tree, then
//! toggled nets ascending by net id, then DFF edges ascending by gate
//! order), so every lane of a wide run is bit-identical to a scalar run
//! of the same stream.
//!
//! [`Wide<W>`] is a plain `[u64; W]`; LLVM auto-vectorizes its
//! elementwise loops on stable toolchains.

use crate::netlist::{NetId, Netlist, ValidateNetlistError};
use crate::power::{EnergyReport, PowerConfig};
use crate::word::MultiLaneSim;
use std::sync::Arc;

/// The Boolean algebra a gate computes in: one `bool`, or a lane word
/// of many independent lanes. The crate's one gate evaluator is generic
/// over it, so the scalar kernels, the lockstep lanes and the macro-op
/// characterization pass share a single logic function per gate kind.
pub trait Logic: Copy {
    /// Every lane low.
    const ZERO: Self;
    /// Every lane high.
    const ONES: Self;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise OR.
    fn or(self, other: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;
    /// Bitwise NOT.
    fn not(self) -> Self;
}

impl Logic for bool {
    const ZERO: Self = false;
    const ONES: Self = true;

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
}

/// A lane word: `BITS` independent boolean lanes evaluated by single
/// word-level operations ([`Logic`]). Implemented by `u64` (64 lanes)
/// and by [`Wide<W>`] (`64 × W` lanes); the multi-lane kernels are
/// generic over this trait.
pub trait LaneWord: Logic + PartialEq + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Lanes (bits) in this word.
    const BITS: u32;

    /// A word with every lane holding `v` (broadcast).
    #[inline]
    fn splat(v: bool) -> Self {
        if v {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// A word with the `n` lowest lanes set (`n == BITS` gives
    /// [`Logic::ONES`]).
    fn low_mask(n: u32) -> Self;
    /// Lane `j` as a boolean.
    fn bit(self, j: u32) -> bool;
    /// Returns `self` with lane `j` forced to `v`.
    fn with_bit(self, j: u32, v: bool) -> Self;
    /// Whether no lane is set.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
    /// Number of set lanes.
    fn count_ones(self) -> u32;
    /// `(self << 1) | carry_in` — the shift a toggle word needs, with
    /// the carry propagating across constituent-`u64` boundaries.
    fn shl1_carry(self, carry_in: bool) -> Self;
    /// Calls `f(j)` for every set lane `j`, ascending — the per-lane
    /// demux loop of the multi-lane engines. It walks the constituent
    /// `u64`s directly, keeping the cost per set lane O(1) in the width.
    #[inline]
    fn for_each_lane(self, mut f: impl FnMut(u32)) {
        self.for_each_word(|k, mut w| {
            while w != 0 {
                f(k as u32 * 64 + w.trailing_zeros());
                w &= w - 1;
            }
        });
    }
    /// Calls `f(k, word)` for each constituent `u64` (`k` ascending, 64
    /// lanes per word), letting per-lane consumers hoist work to word
    /// granularity — e.g. charging energy into one 64-slot chunk per
    /// word without per-lane bounds checks.
    fn for_each_word(self, f: impl FnMut(usize, u64));
    /// The word whose constituent `u64` `k` is `f(k)`, `k` ascending —
    /// the inverse of [`Self::for_each_word`].
    fn from_fn(f: impl FnMut(usize) -> u64) -> Self;
}

impl Logic for u64 {
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
}

impl LaneWord for u64 {
    const BITS: u32 = 64;

    #[inline]
    fn low_mask(n: u32) -> Self {
        debug_assert!(n <= 64);
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }
    #[inline]
    fn bit(self, j: u32) -> bool {
        (self >> j) & 1 == 1
    }
    #[inline]
    fn with_bit(self, j: u32, v: bool) -> Self {
        if v {
            self | (1u64 << j)
        } else {
            self & !(1u64 << j)
        }
    }
    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
    #[inline]
    fn shl1_carry(self, carry_in: bool) -> Self {
        (self << 1) | carry_in as u64
    }
    #[inline]
    fn for_each_word(self, mut f: impl FnMut(usize, u64)) {
        f(0, self);
    }
    #[inline]
    fn from_fn(mut f: impl FnMut(usize) -> u64) -> Self {
        f(0)
    }
}

/// A wide lane word: `W` consecutive `u64`s treated as one
/// `64 × W`-bit word — lane `j` is bit `j % 64` of element `j / 64`.
/// A plain array, whose elementwise ops LLVM auto-vectorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wide<const W: usize>(pub [u64; W]);

/// 128 lanes (two `u64`s).
pub type W128 = Wide<2>;
/// 256 lanes (four `u64`s).
pub type W256 = Wide<4>;
/// 512 lanes (eight `u64`s).
pub type W512 = Wide<8>;

#[inline]
fn wide_low_mask<const W: usize>(n: u32) -> [u64; W] {
    debug_assert!(n as usize <= 64 * W);
    let mut a = [0u64; W];
    let full = (n / 64) as usize;
    for w in a.iter_mut().take(full.min(W)) {
        *w = u64::MAX;
    }
    let rem = n % 64;
    if rem != 0 && full < W {
        a[full] = (1u64 << rem) - 1;
    }
    a
}

#[inline]
fn wide_shl1_carry<const W: usize>(a: [u64; W], carry_in: bool) -> [u64; W] {
    let mut out = [0u64; W];
    let mut carry = carry_in as u64;
    for (o, &w) in out.iter_mut().zip(a.iter()) {
        *o = (w << 1) | carry;
        carry = w >> 63;
    }
    out
}

impl<const W: usize> Logic for Wide<W> {
    const ZERO: Self = Wide([0u64; W]);
    const ONES: Self = Wide([u64::MAX; W]);

    #[inline]
    fn and(mut self, other: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a &= b;
        }
        self
    }
    #[inline]
    fn or(mut self, other: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
        self
    }
    #[inline]
    fn xor(mut self, other: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a ^= b;
        }
        self
    }
    #[inline]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

impl<const W: usize> LaneWord for Wide<W> {
    const BITS: u32 = 64 * W as u32;

    #[inline]
    fn low_mask(n: u32) -> Self {
        Wide(wide_low_mask::<W>(n))
    }
    #[inline]
    fn bit(self, j: u32) -> bool {
        (self.0[(j / 64) as usize] >> (j % 64)) & 1 == 1
    }
    #[inline]
    fn with_bit(mut self, j: u32, v: bool) -> Self {
        let w = &mut self.0[(j / 64) as usize];
        if v {
            *w |= 1u64 << (j % 64);
        } else {
            *w &= !(1u64 << (j % 64));
        }
        self
    }
    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
    #[inline]
    fn shl1_carry(self, carry_in: bool) -> Self {
        Wide(wide_shl1_carry(self.0, carry_in))
    }
    #[inline]
    fn for_each_word(self, mut f: impl FnMut(usize, u64)) {
        for (k, &word) in self.0.iter().enumerate() {
            f(k, word);
        }
    }
    #[inline]
    fn from_fn(f: impl FnMut(usize) -> u64) -> Self {
        Wide(std::array::from_fn(f))
    }
}

/// The toggle word of a cycle-packed lane at any width: lane `j` is set
/// iff the value at slot `j` differs from slot `j - 1`, where slot `-1`
/// is the committed value `prev`. `count_ones` of the toggle word
/// masked to a committed prefix is exactly the scalar kernels' toggle
/// count over that prefix.
#[inline]
pub fn toggle_word_w<W: LaneWord>(lane: W, prev: bool) -> W {
    lane.xor(lane.shl1_carry(prev))
}

/// The widest lane count [`SimdLaneSim`] supports (a [`W512`] word).
pub const MAX_LANES: usize = 512;

/// A width-erased multi-stream lockstep simulator: up to [`MAX_LANES`]
/// independent stimulus streams over one shared netlist, packed into
/// the narrowest lane word that fits the requested count. Each lane is
/// bit-identical to a scalar [`crate::Simulator`] run of the same
/// stream (see [`MultiLaneSim`]).
///
/// This is the simulation target of lane schedulers: Monte-Carlo
/// stimulus points and fault/stimulus variants map one sweep unit per
/// lane and demux per-lane reports afterwards.
///
/// # Examples
///
/// ```
/// use gatesim::{GateKind, Netlist, PowerConfig, SimdLaneSim};
/// use std::sync::Arc;
///
/// let mut n = Netlist::new();
/// let a = n.input();
/// let x = n.gate(GateKind::Not, vec![a]);
/// n.mark_output("x", x);
/// let mut sim = SimdLaneSim::new(Arc::new(n), PowerConfig::date2000_defaults(), 100)?;
/// sim.set_input(70, a, true); // stream 70 raises `a`, the rest hold low
/// sim.step();
/// assert!(!sim.value(x, 70) && sim.value(x, 0));
/// # Ok::<(), gatesim::ValidateNetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub enum SimdLaneSim {
    /// Up to 64 streams in a `u64` word.
    U64(MultiLaneSim<u64>),
    /// 65–128 streams in a [`W128`] word.
    W128(MultiLaneSim<W128>),
    /// 129–256 streams in a [`W256`] word.
    W256(MultiLaneSim<W256>),
    /// 257–512 streams in a [`W512`] word.
    W512(MultiLaneSim<W512>),
}

macro_rules! each_width {
    ($self:expr, $sim:ident => $body:expr) => {
        match $self {
            SimdLaneSim::U64($sim) => $body,
            SimdLaneSim::W128($sim) => $body,
            SimdLaneSim::W256($sim) => $body,
            SimdLaneSim::W512($sim) => $body,
        }
    };
}

impl SimdLaneSim {
    /// Builds a simulator for `lanes` independent streams
    /// (1..=[`MAX_LANES`]) in the narrowest word width that holds them,
    /// validating the netlist. All streams start from the scalar reset
    /// state.
    ///
    /// # Errors
    ///
    /// Returns the netlist's [`ValidateNetlistError`] if it is
    /// malformed.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds [`MAX_LANES`].
    pub fn new(
        netlist: Arc<Netlist>,
        config: PowerConfig,
        lanes: usize,
    ) -> Result<Self, ValidateNetlistError> {
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "1..={MAX_LANES} lanes per simd simulator"
        );
        Ok(if lanes <= 64 {
            SimdLaneSim::U64(MultiLaneSim::new(netlist, config, lanes)?)
        } else if lanes <= 128 {
            SimdLaneSim::W128(MultiLaneSim::new(netlist, config, lanes)?)
        } else if lanes <= 256 {
            SimdLaneSim::W256(MultiLaneSim::new(netlist, config, lanes)?)
        } else {
            SimdLaneSim::W512(MultiLaneSim::new(netlist, config, lanes)?)
        })
    }

    /// The shared netlist this simulator evaluates.
    pub fn netlist(&self) -> &Arc<Netlist> {
        each_width!(self, s => s.netlist())
    }

    /// Number of independent streams in flight.
    pub fn lanes(&self) -> usize {
        each_width!(self, s => s.lanes())
    }

    /// Forces a primary input for one stream from the next cycle on
    /// (see [`MultiLaneSim::set_input`]).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate or `lane` is out of range.
    #[inline]
    pub fn set_input(&mut self, lane: usize, net: NetId, value: bool) {
        each_width!(self, s => s.set_input(lane, net, value));
    }

    /// Forces a primary input in many streams at once, from the next
    /// cycle on (see [`MultiLaneSim::set_input_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not an `Input` gate.
    #[inline]
    pub fn set_input_lanes(&mut self, net: NetId, mask: &[u64], value: &[u64]) {
        each_width!(self, s => s.set_input_lanes(net, mask, value));
    }

    /// The settled value of a net in one stream.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn value(&self, net: NetId, lane: usize) -> bool {
        each_width!(self, s => s.value(net, lane))
    }

    /// Total toggle count of a net in one stream so far.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn toggle_count(&self, net: NetId, lane: usize) -> u64 {
        each_width!(self, s => s.toggle_count(net, lane))
    }

    /// Every stream's per-net toggle counts and settled values, in one
    /// pass over the nets (see [`MultiLaneSim::demux`]).
    pub fn demux(&self) -> (Vec<Vec<u64>>, Vec<Vec<bool>>) {
        each_width!(self, s => s.demux())
    }

    /// One stream's accumulated cycle-by-cycle energy report.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn report(&self, lane: usize) -> &EnergyReport {
        each_width!(self, s => s.report(lane))
    }

    /// Cycles simulated so far (all streams advance together).
    pub fn cycle(&self) -> u64 {
        each_width!(self, s => s.cycle())
    }

    /// Combinational word evaluations so far (each covers every lane).
    pub fn gate_evals(&self) -> u64 {
        each_width!(self, s => s.gate_evals())
    }

    /// Committed `(gate, stream, cycle)` evaluation slots:
    /// `gate_evals × lanes` (see [`MultiLaneSim::gate_eval_slots`]).
    pub fn gate_eval_slots(&self) -> u64 {
        each_width!(self, s => s.gate_eval_slots())
    }

    /// Net value changes observed so far, summed over all streams.
    pub fn gate_events(&self) -> u64 {
        each_width!(self, s => s.gate_events())
    }

    /// Simulates one clock cycle of every stream in lockstep.
    pub fn step(&mut self) {
        each_width!(self, s => s.step());
    }

    /// Runs `n` lockstep cycles.
    pub fn run(&mut self, n: u64) {
        each_width!(self, s => s.run(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::Rng;

    /// Reference model: a `Vec<bool>` of lanes.
    fn ref_bits(n: u32, rng: &mut Rng) -> Vec<bool> {
        (0..n).map(|_| rng.bool_with(0.5)).collect()
    }

    fn from_bits<W: LaneWord>(bits: &[bool]) -> W {
        bits.iter()
            .enumerate()
            .fold(W::ZERO, |w, (i, &b)| w.with_bit(i as u32, b))
    }

    fn to_bits<W: LaneWord>(w: W) -> Vec<bool> {
        (0..W::BITS).map(|j| w.bit(j)).collect()
    }

    fn check_width<W: LaneWord>(seed: u64) {
        let mut rng = Rng::new(seed);
        for _ in 0..40 {
            let a_bits = ref_bits(W::BITS, &mut rng);
            let b_bits = ref_bits(W::BITS, &mut rng);
            let a: W = from_bits(&a_bits);
            let b: W = from_bits(&b_bits);
            // Bitwise ops against the boolean model.
            let pair = |f: fn(bool, bool) -> bool| -> Vec<bool> {
                a_bits.iter().zip(&b_bits).map(|(&x, &y)| f(x, y)).collect()
            };
            assert_eq!(to_bits(a.and(b)), pair(|x, y| x && y));
            assert_eq!(to_bits(a.or(b)), pair(|x, y| x || y));
            assert_eq!(to_bits(a.xor(b)), pair(|x, y| x ^ y));
            assert_eq!(
                to_bits(a.not()),
                a_bits.iter().map(|&x| !x).collect::<Vec<_>>()
            );
            // Population counts and scans.
            assert_eq!(
                a.count_ones(),
                a_bits.iter().filter(|&&x| x).count() as u32
            );
            let mut words = Vec::new();
            a.for_each_word(|k, w| words.push((k, w)));
            assert_eq!(W::from_fn(|k| words[k].1), a);
            let mut set = Vec::new();
            a.for_each_lane(|j| set.push(j));
            let want: Vec<u32> = (0..W::BITS).filter(|&j| a_bits[j as usize]).collect();
            assert_eq!(set, want);
            // Shift with carry-in (toggle-word shift).
            for carry in [false, true] {
                let mut expect = vec![carry];
                expect.extend(&a_bits[..W::BITS as usize - 1]);
                assert_eq!(to_bits(a.shl1_carry(carry)), expect);
            }
            // Masks.
            let n = rng.u64_in(0, W::BITS as u64 + 1) as u32;
            let mask = W::low_mask(n);
            assert_eq!(mask.count_ones(), n);
            assert_eq!(mask.and(W::ONES), mask);
            if n < W::BITS {
                assert!(!mask.bit(n));
            }
        }
        assert!(W::ZERO.is_zero() && !W::ONES.is_zero());
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(W::splat(false), W::ZERO);
        W::ZERO.for_each_lane(|j| panic!("lane {j} set in zero"));
    }

    #[test]
    fn lane_word_ops_match_the_boolean_model_at_every_width() {
        check_width::<u64>(1);
        check_width::<W128>(2);
        check_width::<W256>(3);
        check_width::<W512>(4);
        check_width::<Wide<1>>(5);
    }

    #[test]
    fn wide_toggle_word_matches_u64_per_element_semantics() {
        let mut rng = Rng::new(99);
        for _ in 0..20 {
            let bits = ref_bits(256, &mut rng);
            let prev = rng.bool_with(0.5);
            let w: W256 = from_bits(&bits);
            let t = toggle_word_w(w, prev);
            let mut last = prev;
            for (j, &b) in bits.iter().enumerate() {
                assert_eq!(t.bit(j as u32), b != last, "lane {j}");
                last = b;
            }
        }
    }

    #[test]
    fn simd_lane_sim_picks_the_narrowest_width() {
        use crate::netlist::GateKind;
        let mut n = Netlist::new();
        let a = n.input();
        let x = n.gate(GateKind::Not, vec![a]);
        n.mark_output("x", x);
        let shared = Arc::new(n);
        let cfg = PowerConfig::date2000_defaults();
        for (lanes, words) in [(1, 64), (64, 64), (65, 128), (128, 128), (129, 256), (512, 512)] {
            let sim = SimdLaneSim::new(Arc::clone(&shared), cfg.clone(), lanes).expect("valid");
            assert_eq!(sim.lanes(), lanes);
            let got = match sim {
                SimdLaneSim::U64(_) => 64,
                SimdLaneSim::W128(_) => 128,
                SimdLaneSim::W256(_) => 256,
                SimdLaneSim::W512(_) => 512,
            };
            assert_eq!(got, words, "lanes = {lanes}");
        }
    }
}
