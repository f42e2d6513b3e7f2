//! Statistical sampling / sequence compaction (§4.3 of the paper).
//!
//! Two cooperating mechanisms are provided:
//!
//! * [`KMemoryCompactor`] — the paper's *K-memory dynamic sequence
//!   compaction*: input vectors (or instructions) destined for the
//!   low-level simulator are buffered K at a time; from each buffer a
//!   representative subset is dispatched, chosen to preserve the
//!   single-step (symbol frequency) and two-step (lag-one transition)
//!   statistics of the original stream; the simulator's answer is scaled
//!   back by the compaction ratio.
//! * [`SamplingConfig`] — firing-level sampling used by the
//!   co-simulation master: after a `(task, path)` pair has been observed,
//!   only every `period`-th occurrence is re-simulated in detail; the
//!   other occurrences reuse the latest detailed result. This is the
//!   "reduce the number of calls to the lower-level simulator" form of
//!   sampling, and is exact whenever path energy is time-invariant.
//!
//! Both trade accuracy for fewer detailed simulations. The orthogonal
//! throughput lever — making each detailed gate-level run cover many
//! stimulus variants at once, with *no* accuracy trade at all — is the
//! lane scheduler (`lanes`), which packs Monte-Carlo seeds or
//! fault variants into the lockstep lanes of a [`gatesim::SimdLaneSim`]
//! and demuxes
//! bit-identical per-unit results ([`crate::run_lane_sweep`]).

use std::collections::BTreeMap;
use std::hash::Hash;

/// Firing-level sampling knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Re-simulate every `period`-th occurrence of a path (1 = always).
    pub period: u32,
}

impl SamplingConfig {
    /// Detailed simulation of every 8th occurrence.
    pub fn new() -> Self {
        SamplingConfig { period: 8 }
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::new()
    }
}

/// Statistics of a symbol stream used to judge compaction quality.
///
/// Ordered maps fix the order in which the distances sum their terms,
/// so equal statistics give bit-identical distances in every run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats<S: Ord + Clone> {
    /// Relative frequency of each symbol (single-step statistics).
    pub freq: BTreeMap<S, f64>,
    /// Relative frequency of each ordered pair (lag-one statistics).
    pub pair_freq: BTreeMap<(S, S), f64>,
}

impl<S: Ord + Clone> StreamStats<S> {
    /// Measures a stream.
    pub fn measure(stream: &[S]) -> Self {
        let mut freq = BTreeMap::new();
        for s in stream {
            *freq.entry(s.clone()).or_insert(0.0) += 1.0;
        }
        for v in freq.values_mut() {
            *v /= stream.len().max(1) as f64;
        }
        let mut pair_freq = BTreeMap::new();
        for w in stream.windows(2) {
            *pair_freq
                .entry((w[0].clone(), w[1].clone()))
                .or_insert(0.0) += 1.0;
        }
        let pairs = stream.len().saturating_sub(1).max(1) as f64;
        for v in pair_freq.values_mut() {
            *v /= pairs;
        }
        StreamStats { freq, pair_freq }
    }

    /// Total-variation distance between the single-step statistics of
    /// two streams (0 = identical, 1 = disjoint).
    pub fn freq_distance(&self, other: &Self) -> f64 {
        let mut keys: Vec<&S> = self.freq.keys().collect();
        for k in other.freq.keys() {
            if !self.freq.contains_key(k) {
                keys.push(k);
            }
        }
        0.5 * keys
            .into_iter()
            .map(|k| {
                (self.freq.get(k).unwrap_or(&0.0) - other.freq.get(k).unwrap_or(&0.0)).abs()
            })
            .sum::<f64>()
    }

    /// Total-variation distance between lag-one pair statistics.
    pub fn pair_distance(&self, other: &Self) -> f64 {
        let mut keys: Vec<&(S, S)> = self.pair_freq.keys().collect();
        for k in other.pair_freq.keys() {
            if !self.pair_freq.contains_key(k) {
                keys.push(k);
            }
        }
        0.5 * keys
            .into_iter()
            .map(|k| {
                (self.pair_freq.get(k).unwrap_or(&0.0)
                    - other.pair_freq.get(k).unwrap_or(&0.0))
                .abs()
            })
            .sum::<f64>()
    }
}

/// The K-memory dynamic sequence compactor (see module docs).
///
/// Symbols are pushed as they arrive from the simulation master; every
/// time K symbols have accumulated, [`KMemoryCompactor::push`] returns the
/// representative subset to dispatch to the low-level simulator.
///
/// For streams whose raw symbols are (nearly) all distinct — e.g. whole
/// input vectors — construct with [`with_key`](KMemoryCompactor::with_key)
/// and supply an abstraction (activity class, Hamming-weight bucket, …);
/// the preserved statistics are computed over the key, matching the
/// paper's per-signal statistics rather than whole-vector identity.
///
/// # Examples
///
/// ```
/// use co_estimation::KMemoryCompactor;
///
/// let mut c = KMemoryCompactor::new(8, 4);
/// let mut dispatched = Vec::new();
/// for sym in [1, 1, 2, 1, 1, 2, 3, 1, /* second window */ 2, 2, 2, 2, 1, 1, 1, 1] {
///     if let Some(batch) = c.push(sym) {
///         dispatched.extend(batch);
///     }
/// }
/// assert_eq!(dispatched.len(), 8); // 2 windows x keep=4
/// assert!((c.ratio() - 2.0).abs() < 1e-12); // scale factor for energy
/// ```
#[derive(Debug, Clone)]
pub struct KMemoryCompactor<S: Clone> {
    k: usize,
    keep: usize,
    buffer: Vec<S>,
    seen: u64,
    dispatched: u64,
    key: fn(&S) -> u64,
}

/// Default key: a stable hash of the symbol (identity-like grouping).
fn hash_key<S: Hash>(s: &S) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

impl<S: Eq + Hash + Clone> KMemoryCompactor<S> {
    /// A compactor buffering `k` symbols and dispatching `keep` of them
    /// per window, preserving statistics of the symbols themselves.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= keep <= k`.
    pub fn new(k: usize, keep: usize) -> Self {
        Self::with_key(k, keep, hash_key::<S>)
    }
}

impl<S: Clone> KMemoryCompactor<S> {
    /// A compactor preserving statistics of `key(symbol)` instead of the
    /// raw symbols.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= keep <= k`.
    pub fn with_key(k: usize, keep: usize, key: fn(&S) -> u64) -> Self {
        assert!(k >= 1 && (1..=k).contains(&keep), "need 1 <= keep <= k");
        KMemoryCompactor {
            k,
            keep,
            buffer: Vec::with_capacity(k),
            seen: 0,
            dispatched: 0,
            key,
        }
    }

    /// Offers one symbol; returns the representative subset when the
    /// window fills.
    pub fn push(&mut self, sym: S) -> Option<Vec<S>> {
        self.buffer.push(sym);
        self.seen += 1;
        if self.buffer.len() < self.k {
            return None;
        }
        let window = std::mem::take(&mut self.buffer);
        let out = compact_window(&window, self.keep, self.key);
        self.dispatched += out.len() as u64;
        Some(out)
    }

    /// Flushes a partial window (end of simulation).
    pub fn flush(&mut self) -> Option<Vec<S>> {
        if self.buffer.is_empty() {
            return None;
        }
        let window = std::mem::take(&mut self.buffer);
        let keep = self.keep.min(window.len());
        let out = compact_window(&window, keep, self.key);
        self.dispatched += out.len() as u64;
        Some(out)
    }

    /// `seen / dispatched` — the factor by which the simulator's reported
    /// energy must be scaled up.
    pub fn ratio(&self) -> f64 {
        if self.dispatched == 0 {
            1.0
        } else {
            self.seen as f64 / self.dispatched as f64
        }
    }

    /// Symbols offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Symbols dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }
}

/// Deterministically selects the length-`keep` *contiguous sub-sequence*
/// of `window` whose single-step key statistics (with two-step statistics
/// as tiebreak) are closest to the full window's.
///
/// Contiguity automatically preserves lag-one pairs (every selected pair
/// is a real pair of the original stream — no artificial transitions are
/// fabricated, which is essential when the dispatched sequence drives a
/// simulator whose energy depends on consecutive-symbol correlation);
/// scanning all offsets avoids the aliasing that a fixed-stride
/// subsampling suffers on periodic streams.
fn compact_window<S: Clone>(window: &[S], keep: usize, key: fn(&S) -> u64) -> Vec<S> {
    if keep >= window.len() {
        return window.to_vec();
    }
    let keys: Vec<u64> = window.iter().map(key).collect();
    let target = StreamStats::measure(&keys);
    let mut best: Option<(f64, f64, usize)> = None;
    for offset in 0..=(keys.len() - keep) {
        let cand = &keys[offset..offset + keep];
        let stats = StreamStats::measure(cand);
        let d1 = target.freq_distance(&stats);
        let d2 = target.pair_distance(&stats);
        let better = match &best {
            None => true,
            Some((b1, b2, _)) => d1 < *b1 - 1e-12 || ((d1 - b1).abs() <= 1e-12 && d2 < *b2),
        };
        if better {
            best = Some((d1, d2, offset));
        }
    }
    let offset = best.map_or(0, |(_, _, o)| o);
    window[offset..offset + keep].to_vec()
}

/// *Static* sequence compaction (§4.3): unlike the K-memory dynamic
/// compactor, the complete sequence is available up front, so the
/// selection can optimize globally. The sequence is cut into
/// `ceil(len·ratio⁻¹)`… more precisely: it is compacted to approximately
/// `len / ratio` symbols by choosing, within each of `len / (k·ratio)`
/// spans of `k·ratio` symbols, the contiguous run of `k` symbols whose
/// key statistics best match the *whole sequence's* statistics (the
/// global target is what makes this static rather than dynamic).
///
/// Returns the compacted sequence. `ratio` ≥ 1; `k` is the run length.
///
/// # Panics
///
/// Panics if `ratio == 0` or `k == 0`.
///
/// # Examples
///
/// ```
/// use co_estimation::compact_static;
///
/// let stream: Vec<u32> = (0..1000).map(|i| i % 7).collect();
/// let compact = compact_static(&stream, 5, 10, |&s| s as u64);
/// assert!(compact.len() <= stream.len() / 4);
/// ```
pub fn compact_static<S: Clone>(
    seq: &[S],
    ratio: usize,
    k: usize,
    key: fn(&S) -> u64,
) -> Vec<S> {
    assert!(ratio >= 1, "compaction ratio must be at least 1");
    assert!(k >= 1, "run length must be at least 1");
    if ratio == 1 || seq.len() <= k {
        return seq.to_vec();
    }
    let keys: Vec<u64> = seq.iter().map(key).collect();
    let global = StreamStats::measure(&keys);
    let span = k * ratio;
    let mut out = Vec::with_capacity(seq.len() / ratio + k);
    let mut start = 0;
    while start < seq.len() {
        let end = (start + span).min(seq.len());
        let window = &seq[start..end];
        let wkeys = &keys[start..end];
        let keep = k.min(window.len());
        // Best contiguous run vs the GLOBAL statistics.
        let mut best: Option<(f64, usize)> = None;
        for off in 0..=(window.len() - keep) {
            let stats = StreamStats::measure(&wkeys[off..off + keep]);
            let d = global.freq_distance(&stats) + 0.5 * global.pair_distance(&stats);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, off));
            }
        }
        let off = best.map_or(0, |(_, o)| o);
        out.extend_from_slice(&window[off..off + keep]);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_uniform_stream() {
        let s = StreamStats::measure(&[1, 2, 1, 2, 1, 2, 1, 2]);
        assert!((s.freq[&1] - 0.5).abs() < 1e-12);
        assert!((s.freq[&2] - 0.5).abs() < 1e-12);
        assert!(s.pair_freq[&(1, 2)] > 0.5);
    }

    #[test]
    fn identical_streams_have_zero_distance() {
        let a = StreamStats::measure(&[1, 2, 3, 1, 2, 3]);
        let b = StreamStats::measure(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(a.freq_distance(&b), 0.0);
        assert_eq!(a.pair_distance(&b), 0.0);
    }

    #[test]
    fn rebuilt_stats_give_bit_identical_distances() {
        // Dozens of symbols and pairs with uneven frequencies, so the
        // sums of |Δ| round differently in different term orders.
        let a: Vec<u32> = (0..997).map(|i| i * i % 61).collect();
        let b: Vec<u32> = (0..503).map(|i| (i * 7 + i / 3) % 67).collect();
        let distances = || {
            let (sa, sb) = (StreamStats::measure(&a), StreamStats::measure(&b));
            (
                sa.freq_distance(&sb).to_bits(),
                sa.pair_distance(&sb).to_bits(),
                sb.freq_distance(&sa).to_bits(),
            )
        };
        let first = distances();
        for _ in 0..32 {
            assert_eq!(distances(), first);
        }
    }

    #[test]
    fn disjoint_streams_have_distance_one() {
        let a = StreamStats::measure(&[1, 1, 1]);
        let b = StreamStats::measure(&[2, 2, 2]);
        assert!((a.freq_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_emitted_when_full() {
        let mut c = KMemoryCompactor::new(4, 2);
        assert!(c.push(1).is_none());
        assert!(c.push(2).is_none());
        assert!(c.push(1).is_none());
        let w = c.push(2).expect("window full");
        assert_eq!(w.len(), 2);
        assert_eq!(c.seen(), 4);
        assert_eq!(c.dispatched(), 2);
        assert!((c.ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flush_handles_partial_windows() {
        let mut c = KMemoryCompactor::new(8, 4);
        for i in 0..5 {
            assert!(c.push(i).is_none());
        }
        let w = c.flush().expect("partial window");
        assert_eq!(w.len(), 4);
        assert!(c.flush().is_none());
    }

    #[test]
    fn keep_equal_k_is_identity() {
        let mut c = KMemoryCompactor::new(4, 4);
        c.push(9);
        c.push(8);
        c.push(7);
        let w = c.push(6).expect("full");
        assert_eq!(w, vec![9, 8, 7, 6]);
        assert!((c.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compaction_preserves_single_step_statistics() {
        // A biased stream: 75% zeros, 25% ones.
        let stream: Vec<u8> = (0..400).map(|i| u8::from(i % 4 == 0)).collect();
        let mut c = KMemoryCompactor::new(40, 10);
        let mut out = Vec::new();
        for &s in &stream {
            if let Some(b) = c.push(s) {
                out.extend(b);
            }
        }
        let orig = StreamStats::measure(&stream);
        let comp = StreamStats::measure(&out);
        assert!(
            orig.freq_distance(&comp) < 0.1,
            "single-step distance {} too large",
            orig.freq_distance(&comp)
        );
    }

    #[test]
    fn compaction_preserves_pair_statistics_of_periodic_stream() {
        // Period-2 stream: pairs (0,1) and (1,0) dominate.
        let stream: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
        let mut c = KMemoryCompactor::new(20, 10);
        let mut out = Vec::new();
        for &s in &stream {
            if let Some(b) = c.push(s) {
                out.extend(b);
            }
        }
        let orig = StreamStats::measure(&stream);
        let comp = StreamStats::measure(&out);
        assert!(
            orig.pair_distance(&comp) < 0.25,
            "pair distance {} too large",
            orig.pair_distance(&comp)
        );
    }

    #[test]
    fn compaction_is_deterministic() {
        let stream: Vec<u32> = (0..100).map(|i| i * 7 % 13).collect();
        let run = || {
            let mut c = KMemoryCompactor::new(25, 7);
            let mut out = Vec::new();
            for &s in &stream {
                if let Some(b) = c.push(s) {
                    out.extend(b);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "1 <= keep <= k")]
    fn bad_keep_rejected() {
        KMemoryCompactor::<u8>::new(4, 5);
    }

    #[test]
    fn sampling_config_default() {
        assert_eq!(SamplingConfig::default().period, 8);
    }

    #[test]
    fn static_compaction_hits_the_requested_ratio() {
        let stream: Vec<u32> = (0..1200).map(|i| (i * 13) % 5).collect();
        let out = compact_static(&stream, 4, 25, |&s| s as u64);
        let actual_ratio = stream.len() as f64 / out.len() as f64;
        assert!(
            (actual_ratio - 4.0).abs() < 0.5,
            "ratio {actual_ratio} not ~4"
        );
    }

    #[test]
    fn static_compaction_preserves_global_statistics() {
        // 80/20 biased stream with phase structure.
        let stream: Vec<u8> = (0..1000)
            .map(|i| u8::from(i % 5 == 0 || (i / 100) % 3 == 0))
            .collect();
        let out = compact_static(&stream, 5, 20, |&s| s as u64);
        let a = StreamStats::measure(&stream);
        let b = StreamStats::measure(&out);
        assert!(
            a.freq_distance(&b) < 0.08,
            "freq distance {}",
            a.freq_distance(&b)
        );
    }

    #[test]
    fn static_beats_or_matches_dynamic_on_global_stats() {
        // The static compactor optimizes against the whole sequence's
        // statistics; the dynamic one only sees one window at a time.
        let stream: Vec<u8> = (0..900)
            .map(|i| if (i / 150) % 2 == 0 { 0 } else { (i % 3) as u8 + 1 })
            .collect();
        let global = StreamStats::measure(&stream);
        let st = compact_static(&stream, 5, 15, |&s| s as u64);
        let mut dynamic = Vec::new();
        let mut c = KMemoryCompactor::with_key(75, 15, |&s: &u8| s as u64);
        for &s in &stream {
            if let Some(b) = c.push(s) {
                dynamic.extend(b);
            }
        }
        let ds = StreamStats::measure(&dynamic);
        let ss = StreamStats::measure(&st);
        assert!(
            global.freq_distance(&ss) <= global.freq_distance(&ds) + 0.05,
            "static {} vs dynamic {}",
            global.freq_distance(&ss),
            global.freq_distance(&ds)
        );
    }

    #[test]
    fn static_ratio_one_is_identity() {
        let stream: Vec<u8> = vec![3, 1, 4, 1, 5];
        assert_eq!(compact_static(&stream, 1, 2, |&s| s as u64), stream);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn static_zero_ratio_rejected() {
        compact_static(&[1u8], 0, 1, |&s| s as u64);
    }
}
