//! `detrand` — dependency-free deterministic pseudo-random numbers.
//!
//! The co-estimation experiments must be exactly reproducible run-to-run
//! and machine-to-machine, and the build must work without network
//! access, so workloads and randomized tests draw from this tiny
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator instead
//! of an external crate. SplitMix64 passes BigCrush, has a full 2^64
//! period, and its output for a given seed is fixed forever — exactly
//! what a reproducible workload generator needs (cryptographic quality
//! is explicitly *not* a goal).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use detrand::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut r = Rng::new(7);
/// let v = r.u64_in(10, 20);
/// assert!((10..20).contains(&v));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// `rand`-flavoured alias for [`Rng::new`].
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng::new(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[lo, hi)`. Uses Lemire-style widening
    /// multiplication; the modulo bias is at most 2⁻⁶⁴ per draw.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// A uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi as i128 - lo as i128) as u128;
        assert!(span > 0, "empty range [{lo}, {hi})");
        let wide = (self.next_u64() as u128) * span;
        (lo as i128 + (wide >> 64) as i128) as i64
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range [{lo}, {hi})");
        lo + self.f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Flips `coin`: exactly what [`Rng::bool_with`] returns for the
    /// coin's probability, from the same one draw, without converting
    /// the draw to a float.
    pub fn flip(&mut self, coin: Coin) -> bool {
        (self.next_u64() >> 11) < coin.0
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.usize_in(0, items.len())]
    }
}

/// A Bernoulli coin for [`Rng::flip`], precomputed once for a loop
/// that flips it many times.
///
/// [`Rng::bool_with`]`(p)` is true iff `m · 2⁻⁵³ < p` for the draw's
/// top 53 bits `m`. That product is exact, so for the integer `m` the
/// test is `m < ⌈p · 2⁵³⌉`, and the coin stores that threshold (`p ≤ 0`
/// and NaN give 0, never true; `p ≥ 1` gives at least `2⁵³`, always
/// true).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coin(u64);

impl Coin {
    /// The coin [`Rng::bool_with`]`(p)` flips.
    pub fn new(p: f64) -> Self {
        Coin((p * (1u64 << 53) as f64).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = Rng::new(0xDA7E_2000);
        let mut b = Rng::new(0xDA7E_2000);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = Rng::new(0);
        let first = r.next_u64();
        assert_ne!(first, 0);
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!((5..17).contains(&r.u64_in(5, 17)));
            assert!((-20..-3).contains(&r.i64_in(-20, -3)));
            assert!((0..3).contains(&r.usize_in(0, 3)));
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.f64_in(-2.5, 4.0);
            assert!((-2.5..4.0).contains(&g));
        }
    }

    #[test]
    fn u64_range_covers_all_values() {
        let mut r = Rng::new(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.usize_in(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bins hit: {seen:?}");
    }

    #[test]
    fn singleton_range_is_constant() {
        let mut r = Rng::new(4);
        assert_eq!(r.u64_in(7, 8), 7);
        assert_eq!(r.i64_in(-1, 0), -1);
    }

    #[test]
    fn choose_picks_members() {
        let items = ["a", "b", "c"];
        let mut r = Rng::new(11);
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items)));
        }
    }

    /// Probabilities at and around every boundary of the threshold
    /// conversion: signed zeros, subnormals, one unit of the 53-bit
    /// draw, values just below and above 1, infinities and NaN.
    const EDGE_P: [f64; 21] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        1.0 / (1u64 << 54) as f64,
        1.0 / (1u64 << 53) as f64,
        3.0 / (1u64 << 53) as f64,
        0.1,
        0.2,
        0.25,
        1.0 / 3.0,
        0.5,
        0.5 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        1.0,
        1.0 + f64::EPSILON,
        2.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    #[test]
    fn flip_equals_bool_with_draw_for_draw() {
        for (i, &p) in EDGE_P.iter().enumerate() {
            let coin = Coin::new(p);
            let (mut a, mut b) = (Rng::new(i as u64), Rng::new(i as u64));
            for n in 0..20_000 {
                assert_eq!(a.flip(coin), b.bool_with(p), "p = {p:e}, draw {n}");
            }
            // One draw per flip: both streams stand at the same state.
            assert_eq!(a, b, "p = {p:e}: draws consumed");
        }
    }

    #[test]
    fn coin_threshold_is_exact_at_its_boundary() {
        // A random stream almost never lands next to the threshold, so
        // test the draws on either side of it directly, with the same
        // float expression `Rng::f64` evaluates.
        let scale = 1.0 / (1u64 << 53) as f64;
        for &p in &EDGE_P {
            let t = Coin::new(p).0;
            for m in [t.wrapping_sub(1), t, t.wrapping_add(1)] {
                if m < 1u64 << 53 {
                    assert_eq!(m < t, (m as f64) * scale < p, "p = {p:e}, m = {m}");
                }
            }
        }
    }

    #[test]
    fn bool_probability_is_sane() {
        let mut r = Rng::new(5);
        let hits = (0..10_000).filter(|_| r.bool_with(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "~25%: {hits}");
    }
}
