//! Exact memoization of gate-level hardware firings.
//!
//! A firing of a synthesized transition on the event-driven kernel is a
//! pure function of the simulator's compact pre-firing state, the inputs
//! the load cycle forces, and the memory read data the master supplies
//! ([`Simulator::pack_memo_key`] documents why the state part is exact).
//! A [`FiringMemo`] — one per synthesized transition and
//! [`PowerConfig`](crate::PowerConfig), inside the synthesis memo — maps
//! that key to the firing's [`HwRun`], its `gate_events` delta, and the
//! packed post-firing simulator state, so a repeated firing restores the
//! state by copy instead of stepping.
//!
//! Keys are compared in full; the hash only locates candidates.
//!
//! **Admission.** A memo admits every simulated firing until its entries
//! hold [`ALLOWANCE_BYTES`]. Past that allowance it grows only on
//! observed reuse:
//!
//! * on a key's second sighting: a refused key sets a bit in the memo's
//!   reuse filter, and a key whose bit is set is admitted (a bit shared
//!   by two keys only admits a key early); and
//! * while its hits keep pace with its entries: as long as the memo has
//!   answered at least as many lookups as it has stored entries since it
//!   was built, counting earlier sweeps, it admits first sightings too.
//!
//! So a transition whose firings repeat at every point of a sweep is
//! answered from the third point on in its first sweep and from the
//! second point on in later ones, while one whose firings rarely repeat
//! stays near its allowance.
//!
//! **Storage.** Each entry is one allocation of exactly its words, so
//! growth copies no entry and a memo of a few small entries holds no
//! more than they need. Entries and reuse filters of all memos together
//! stay under [`FIRING_MEMO_CAP_BYTES`]; past it a firing is simulated
//! and not stored. When the sweep that filled a memo ends, its entries
//! are freed.
//!
//! [`Simulator::pack_memo_key`]: crate::sim::Simulator::pack_memo_key

use crate::synth::HwRun;
use cfsm::EventId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Entry bytes a memo admits on first sighting.
pub(crate) const ALLOWANCE_BYTES: usize = 64 * 1024;
const ALLOWANCE_WORDS: usize = ALLOWANCE_BYTES / 8;

/// Words in a reuse filter (8 KiB, 65 536 bits).
const FILTER_WORDS: usize = 1024;

/// Bytes that the entries and reuse filters of all firing memos in the
/// process hold together at most.
pub const FIRING_MEMO_CAP_BYTES: usize = 4 << 20;

/// The budget every memo in the synthesis memo draws on.
pub(crate) static BUDGET: Budget = Budget::new(FIRING_MEMO_CAP_BYTES);

/// Chain terminator in an entry's header.
const END: u32 = u32::MAX;

/// Bytes held under a cap, shared by the memos that draw on it.
#[derive(Debug)]
pub(crate) struct Budget {
    cap: usize,
    held: AtomicUsize,
}

impl Budget {
    /// A budget of `cap` bytes, none held. The cap keeps every entry,
    /// and so every length and count in its header words, below 2^32
    /// words.
    pub(crate) const fn new(cap: usize) -> Self {
        assert!(cap / 8 < END as usize, "entry lengths must fit 32 bits");
        Budget {
            cap,
            held: AtomicUsize::new(0),
        }
    }

    /// Holds `bytes` more, unless that would pass the cap.
    fn take(&self, bytes: usize) -> bool {
        // Only the count is shared; it publishes no other data.
        self.held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                (held + bytes <= self.cap).then_some(held + bytes)
            })
            .is_ok()
    }

    /// Releases `bytes` held.
    fn give(&self, bytes: usize) {
        self.held.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes held now.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }
}

/// What a hit returns: the stored run (with `vars_out` left empty — the
/// caller reads them from the restored state), its `gate_events` delta,
/// and the packed post-firing state.
pub(crate) struct Hit<'a> {
    pub(crate) run: HwRun,
    pub(crate) events: u64,
    pub(crate) post: &'a [u64],
}

/// One transition's firing memo under one `PowerConfig`.
///
/// Layout of an entry, in `u64` words:
///
/// * a header: the reference of the previous entry with the same key
///   hash ([`END`] if none) in the low half, the key length in the high;
/// * the key;
/// * cycles, energy bits, the `gate_events` delta, and the counts of
///   emitted events (low half) and memory operations (high half);
/// * two words per emitted event: the event id with bit 32 set if it
///   carries a value, then the value;
/// * per memory operation the address, with bit 63 set for a write,
///   and for a write the data word (a read records zero data);
/// * the post state ([`Simulator::pack_memo_post`]).
///
/// An entry's reference is its index in `entries`.
///
/// [`Simulator::pack_memo_post`]: crate::sim::Simulator::pack_memo_post
#[derive(Debug)]
pub(crate) struct FiringMemo {
    budget: &'static Budget,
    /// Key hash → reference of the newest entry with that hash.
    index: HashMap<u64, u32>,
    entries: Vec<Box<[u64]>>,
    /// Words the entries occupy.
    held: usize,
    /// Reuse filter, built at the first refusal: bit [`filter_bit`] of a
    /// key refused past the allowance is set.
    seen: Option<Box<[u64]>>,
    hits: u64,
    misses: u64,
    declined: u64,
    /// Entries admitted since the memo was built.
    stored: u64,
}

impl FiringMemo {
    /// An empty memo drawing on `budget`.
    pub(crate) fn new(budget: &'static Budget) -> Self {
        FiringMemo {
            budget,
            index: HashMap::default(),
            entries: Vec::new(),
            held: 0,
            seen: None,
            hits: 0,
            misses: 0,
            declined: 0,
            stored: 0,
        }
    }

    /// Looks a firing up by its full `key`. A hit returns the stored run
    /// and the `post_words` words of post-firing state.
    pub(crate) fn lookup(&mut self, hash: u64, key: &[u64], post_words: usize) -> Option<Hit<'_>> {
        let Some(at) = self.find(hash, key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let e = &self.entries[at as usize][1 + key.len()..];
        let (n_emitted, n_mem) = halves(e[3]);
        let (emitted, mut rest) = e[4..].split_at(2 * n_emitted);
        let mem_ops = (0..n_mem)
            .map(|_| {
                let addr = rest[0];
                let data = if addr & WRITE == 0 { 0 } else { rest[1] as i64 };
                rest = &rest[1 + usize::from(addr & WRITE != 0)..];
                (addr & !WRITE, addr & WRITE != 0, data)
            })
            .collect();
        let run = HwRun {
            cycles: e[0],
            energy_j: f64::from_bits(e[1]),
            vars_out: Vec::new(),
            emitted: emitted
                .chunks_exact(2)
                .map(|p| {
                    let (event, has) = halves(p[0]);
                    (EventId(event as u32), (has == 1).then_some(p[1] as i64))
                })
                .collect(),
            mem_ops,
        };
        Some(Hit {
            run,
            events: e[2],
            post: &rest[..post_words],
        })
    }

    /// Stores a simulated firing: `run` and its `events` delta, with the
    /// `post_words` words of post-firing state written by `pack_post`.
    /// Skipped when an entry for `key` already exists (a parallel worker
    /// simulated the same firing); declined when the admission rule (see
    /// the module docs) or the cap refuses it, or when the firing does
    /// not fit the layout.
    pub(crate) fn admit(
        &mut self,
        hash: u64,
        key: &[u64],
        run: &HwRun,
        events: u64,
        post_words: usize,
        pack_post: impl FnOnce(&mut [u64]),
    ) {
        if self.find(hash, key).is_some() {
            return;
        }
        let writes = run.mem_ops.iter().filter(|op| op.1).count();
        let words =
            1 + key.len() + 4 + 2 * run.emitted.len() + run.mem_ops.len() + writes + post_words;
        let fits = run
            .mem_ops
            .iter()
            .all(|&(addr, write, data)| addr & WRITE == 0 && (write || data == 0));
        if !fits || !self.admits(hash, words) || !self.budget.take(8 * words) {
            self.declined += 1;
            return;
        }
        let mut e = vec![0; words].into_boxed_slice();
        let (head, rest) = e.split_at_mut(1 + key.len());
        let next = self.index.get(&hash).copied().unwrap_or(END);
        head[0] = join(next as usize, key.len());
        head[1..].copy_from_slice(key);
        let (fixed, rest) = rest.split_at_mut(4);
        fixed.copy_from_slice(&[
            run.cycles,
            run.energy_j.to_bits(),
            events,
            join(run.emitted.len(), run.mem_ops.len()),
        ]);
        let (emitted, rest) = rest.split_at_mut(2 * run.emitted.len());
        for (p, &(event, value)) in emitted.chunks_exact_mut(2).zip(&run.emitted) {
            p[0] = join(event.0 as usize, usize::from(value.is_some()));
            p[1] = value.unwrap_or(0) as u64;
        }
        let (mem_ops, post) = rest.split_at_mut(run.mem_ops.len() + writes);
        let mut at = 0;
        for &(addr, write, data) in &run.mem_ops {
            mem_ops[at] = addr | if write { WRITE } else { 0 };
            if write {
                mem_ops[at + 1] = data as u64;
            }
            at += 1 + usize::from(write);
        }
        pack_post(post);
        self.index.insert(hash, self.entries.len() as u32);
        self.entries.push(e);
        self.held += words;
        self.stored += 1;
    }

    /// Whether the admission rule takes a new entry of `words` words for
    /// a key hashing to `hash`: within the allowance always; past it
    /// while the hits keep pace with the entries stored, or else on the
    /// key's second sighting, which the first one records.
    fn admits(&mut self, hash: u64, words: usize) -> bool {
        if self.held + words <= ALLOWANCE_WORDS || self.hits >= self.stored {
            return true;
        }
        if self.seen.is_none() && self.budget.take(8 * FILTER_WORDS) {
            self.seen = Some(vec![0; FILTER_WORDS].into_boxed_slice());
        }
        let Some(seen) = &mut self.seen else {
            return false;
        };
        let bit = filter_bit(hash);
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let again = seen[word] & mask != 0;
        seen[word] |= mask;
        again
    }

    /// Index of the entry whose key equals `key`, if any.
    fn find(&self, hash: u64, key: &[u64]) -> Option<u32> {
        let mut at = *self.index.get(&hash)?;
        while at != END {
            let e = &self.entries[at as usize];
            let (next, len) = halves(e[0]);
            if len == key.len() && e[1..=len] == *key {
                return Some(at);
            }
            at = next as u32;
        }
        None
    }

    /// Frees every entry and the reuse filter.
    pub(crate) fn empty(&mut self) {
        let filter = self.seen.take().map_or(0, |f| f.len());
        self.budget.give(8 * (self.held + filter));
        self.index.clear();
        self.entries.clear();
        self.held = 0;
    }

    /// Lookups answered from the memo.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found no entry.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses whose firing the admission rule or the cap kept out.
    pub(crate) fn declined(&self) -> u64 {
        self.declined
    }

    /// Bytes the entries occupy.
    pub(crate) fn bytes(&self) -> usize {
        self.held * 8
    }
}

impl Drop for FiringMemo {
    fn drop(&mut self) {
        self.empty();
    }
}

/// Bit 63 of a stored memory operation's address: set for a write. A
/// datapath is at most 63 bits wide, so addresses never reach it.
const WRITE: u64 = 1 << 63;

/// Packs `low` and `high` (each below 2^32) into one word.
fn join(low: usize, high: usize) -> u64 {
    debug_assert!(low <= u32::MAX as usize && high <= u32::MAX as usize);
    low as u64 | (high as u64) << 32
}

/// The halves [`join`] packed.
fn halves(word: u64) -> (usize, usize) {
    (word as u32 as usize, (word >> 32) as usize)
}

/// The reuse-filter bit of a key hash: hash bits 24 to 39.
fn filter_bit(hash: u64) -> usize {
    (hash >> 24) as usize % (64 * FILTER_WORDS)
}

/// Hash of a memo key: locates candidate entries, never decides a hit.
/// Each word is folded in by a full 64×64-bit multiply, so every bit of
/// the result depends on every key bit.
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    key.iter().fold(key.len() as u64, |h, &w| {
        let p = u128::from(h ^ w) * 0x9E37_79B9_7F4A_7C15;
        (p as u64) ^ (p >> 64) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget of `bytes` of its own, so a test's cap is not the
    /// process's.
    fn budget(bytes: usize) -> &'static Budget {
        Box::leak(Box::new(Budget::new(bytes)))
    }

    const POST: usize = 19;
    /// Words of one test entry: header, key, fixed payload, one emitted
    /// event, a write and a read, post state.
    const ENTRY: usize = 1 + 3 + 4 + 2 + 3 + POST;
    /// Test entries the allowance holds (exactly).
    const FIRST: u64 = (ALLOWANCE_WORDS / ENTRY) as u64;
    const _: () = assert!(ALLOWANCE_WORDS.is_multiple_of(ENTRY));

    fn key(k: u64) -> [u64; 3] {
        [k, !k, k.rotate_left(17)]
    }

    fn run(k: u64) -> HwRun {
        HwRun {
            cycles: 3 + k % 5,
            energy_j: k as f64 * 1e-12,
            vars_out: Vec::new(),
            emitted: vec![(
                EventId(k as u32 % 7),
                k.is_multiple_of(2).then_some(-(k as i64)),
            )],
            mem_ops: vec![(k, true, k as i64 - 9), (k + 1, false, 0)],
        }
    }

    fn post(k: u64) -> [u64; POST] {
        std::array::from_fn(|i| k * 31 + i as u64)
    }

    /// Fires `k` into `memo`: a hit must return exactly what firing `k`
    /// stored; a miss is simulated and offered for admission. Returns
    /// whether it hit.
    fn fire(memo: &mut FiringMemo, k: u64) -> bool {
        let key = key(k);
        let hash = hash_key(&key);
        if let Some(hit) = memo.lookup(hash, &key, POST) {
            assert_eq!(
                (hit.run, hit.events, hit.post),
                (run(k), 11 * k, &post(k)[..])
            );
            return true;
        }
        memo.admit(hash, &key, &run(k), 11 * k, POST, |out| {
            out.copy_from_slice(&post(k))
        });
        false
    }

    /// `(hits, misses, declined, entries held)` after firing `ks`.
    fn fire_all(
        memo: &mut FiringMemo,
        ks: impl IntoIterator<Item = u64>,
    ) -> (u64, u64, u64, usize) {
        let hits = ks.into_iter().filter(|&k| fire(memo, k)).count() as u64;
        (
            hits,
            memo.misses(),
            memo.declined(),
            memo.bytes() / (8 * ENTRY),
        )
    }

    #[test]
    fn the_allowance_admits_on_first_sighting() {
        let mut memo = FiringMemo::new(budget(FIRING_MEMO_CAP_BYTES));
        assert_eq!(fire_all(&mut memo, 0..FIRST), (0, FIRST, 0, FIRST as usize));
        assert_eq!(memo.bytes(), ALLOWANCE_BYTES);
        // One more new key is refused; every admitted firing hits.
        assert_eq!(
            fire_all(&mut memo, [FIRST]),
            (0, FIRST + 1, 1, FIRST as usize)
        );
        assert_eq!(fire_all(&mut memo, 0..FIRST).0, FIRST);
    }

    #[test]
    fn a_key_refused_past_the_allowance_is_admitted_on_reuse_then_hits() {
        let mut memo = FiringMemo::new(budget(FIRING_MEMO_CAP_BYTES));
        fire_all(&mut memo, 0..FIRST);
        let late = 1_000..1_040;
        // First sightings past the allowance, with no hit yet: simulated
        // and declined.
        assert_eq!(
            fire_all(&mut memo, late.clone()),
            (0, FIRST + 40, 40, FIRST as usize)
        );
        // Second sightings: simulated again, and now admitted, while a
        // key never seen before is still refused.
        assert_eq!(
            fire_all(&mut memo, late.clone().chain([5_000])),
            (0, FIRST + 81, 41, FIRST as usize + 40)
        );
        assert!(memo.bytes() > ALLOWANCE_BYTES);
        // From then on they hit, next to the allowance's entries.
        assert_eq!(fire_all(&mut memo, late.chain(0..FIRST)).0, FIRST + 40);
    }

    #[test]
    fn hits_that_keep_pace_with_the_entries_admit_first_sightings() {
        let mut memo = FiringMemo::new(budget(FIRING_MEMO_CAP_BYTES));
        fire_all(&mut memo, 0..FIRST);
        assert_eq!(fire_all(&mut memo, [1_000]).2, 1, "no hit yet");
        // One hit per entry: the next new key is admitted at once...
        assert_eq!(fire_all(&mut memo, 0..FIRST).0, FIRST);
        assert_eq!(
            fire_all(&mut memo, [2_000]),
            (0, FIRST + 2, 1, FIRST as usize + 1)
        );
        // ...which puts the entries one ahead, so the one after is not.
        assert_eq!(fire_all(&mut memo, [3_000]).2, 2);
        // The counts outlive a sweep: with hits well ahead, the emptied
        // memo admits first sightings past its allowance.
        assert_eq!(fire_all(&mut memo, (0..FIRST).chain(0..FIRST)).0, 2 * FIRST);
        memo.empty();
        fire_all(&mut memo, 0..FIRST + 10);
        assert_eq!(memo.declined(), 2);
        assert_eq!(memo.bytes(), ALLOWANCE_BYTES + 10 * 8 * ENTRY);
    }

    #[test]
    fn nothing_passes_the_cap() {
        // Room for 96 test entries, well inside one allowance.
        let cap = budget(96 * 8 * ENTRY);
        let mut a = FiringMemo::new(cap);
        let mut b = FiringMemo::new(cap);
        assert_eq!(fire_all(&mut a, 0..101).2, 5, "the cap refused the rest");
        assert_eq!(fire_all(&mut b, 100..110).2, 10, "no room for another memo");
        assert_eq!(cap.held(), 96 * 8 * ENTRY);
        assert_eq!(a.bytes() + b.bytes(), cap.held());
        // Emptying gives the room back, and the other memo takes it.
        a.empty();
        assert_eq!(cap.held(), 0);
        assert_eq!(fire_all(&mut b, 100..110).2, 10, "first sightings admitted");
        assert_eq!(fire_all(&mut b, 100..110).0, 10);
        drop(b);
        assert_eq!(cap.held(), 0, "a dropped memo gives its room back");

        // The reuse filter is storage under the cap too: with the
        // allowance full and the filter built, a reused key finds no room.
        let cap = budget(ALLOWANCE_BYTES + 8 * FILTER_WORDS);
        let mut memo = FiringMemo::new(cap);
        fire_all(&mut memo, 0..FIRST);
        let late = 1_000..1_010;
        fire_all(&mut memo, late.clone());
        assert_eq!(fire_all(&mut memo, late).2, 20, "both sightings refused");
        assert_eq!(memo.bytes(), ALLOWANCE_BYTES);
        assert_eq!(cap.held(), ALLOWANCE_BYTES + 8 * FILTER_WORDS);
    }

    #[test]
    fn growth_copies_no_entry() {
        let mut memo = FiringMemo::new(budget(FIRING_MEMO_CAP_BYTES));
        let entries = |memo: &FiringMemo| -> Vec<*const u64> {
            memo.entries.iter().map(|e| e.as_ptr()).collect()
        };
        fire_all(&mut memo, 0..FIRST);
        let before = entries(&memo);
        let late = 1_000..1_000 + 3 * FIRST;
        fire_all(&mut memo, late.clone().chain(late.clone()));
        let grown = entries(&memo);
        // Growth added entries and moved none of the earlier ones...
        assert_eq!(grown.len(), before.len() + 3 * FIRST as usize);
        assert_eq!(grown[..before.len()], before[..]);
        // ...and every entry is still found.
        assert_eq!(fire_all(&mut memo, (0..FIRST).chain(late)).0, 4 * FIRST);
    }
}
