//! Exact memoization of gate-level hardware firings.
//!
//! A firing of a synthesized transition on the event-driven kernel is a
//! pure function of the simulator's compact pre-firing state, the inputs
//! the load cycle forces, and the memory read data the master supplies
//! ([`Simulator::pack_memo_key`] documents why the state part is exact).
//! A [`FiringMemo`] — one per synthesized transition, inside the
//! synthesis memo — maps that key to the firing's [`HwRun`], its
//! `gate_events` delta, and the packed post-firing simulator state, so a
//! repeated firing restores the state by copy instead of stepping.
//!
//! Keys are compared in full; the hash only locates candidates. Entries
//! live back to back in one arena that is cleared, not freed, when the
//! sweep that filled it ends, and a transition stops admitting entries
//! once the arena would exceed [`BUDGET_BYTES`].

use crate::sim::Simulator;
use crate::synth::HwRun;
use cfsm::EventId;
use std::collections::HashMap;

/// Arena bytes one transition's memo may hold.
pub(crate) const BUDGET_BYTES: usize = 64 * 1024;
const BUDGET_WORDS: usize = BUDGET_BYTES / 8;

/// Chain terminator in an entry's `next` word.
const END: u64 = u64::MAX;

/// One transition's firing memo.
///
/// Arena layout of an entry, in `u64` words: `next` (arena offset of the
/// previous entry with the same key hash, or [`END`]), the key length,
/// the key, then the payload — cycles, energy bits, `gate_events` delta,
/// `vars_out` (count, values), `emitted` (count, then `(event, has
/// value, value)` triples), `mem_ops` (count, then `(addr, write,
/// data)` triples) — and last the post state
/// ([`Simulator::pack_memo_post`]).
#[derive(Debug, Default)]
pub(crate) struct FiringMemo {
    /// Key hash → arena offset of the newest entry with that hash.
    index: HashMap<u64, usize>,
    arena: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl FiringMemo {
    /// Looks a firing up by its full `key`. On a hit, restores `sim` to
    /// the stored post-firing state and returns the stored run.
    pub(crate) fn lookup(&mut self, hash: u64, key: &[u64], sim: &mut Simulator) -> Option<HwRun> {
        let Some(at) = self.find(hash, key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let mut r = Reader {
            words: &self.arena,
            at: at + 2 + key.len(),
        };
        let cycles = r.word();
        let energy_j = f64::from_bits(r.word());
        let events = r.word();
        let n = r.count();
        let vars_out = (0..n).map(|_| r.word() as i64).collect();
        let n = r.count();
        let emitted = (0..n)
            .map(|_| {
                let (e, has, v) = (r.word(), r.word(), r.word() as i64);
                (EventId(e as u32), (has == 1).then_some(v))
            })
            .collect();
        let n = r.count();
        let mem_ops = (0..n)
            .map(|_| (r.word(), r.word() == 1, r.word() as i64))
            .collect();
        sim.restore_memo_post(&self.arena[r.at..], cycles, events);
        Some(HwRun {
            cycles,
            energy_j,
            vars_out,
            emitted,
            mem_ops,
        })
    }

    /// Stores a simulated firing: `run` and its `events` delta, with the
    /// post-firing state read from `sim`. Skipped when the entry would
    /// push the arena past the budget, or when an entry for `key`
    /// already exists (a parallel worker simulated the same firing).
    pub(crate) fn admit(
        &mut self,
        hash: u64,
        key: &[u64],
        run: &HwRun,
        events: u64,
        sim: &Simulator,
    ) {
        let words = 2
            + key.len()
            + 3
            + 1
            + run.vars_out.len()
            + 1
            + 3 * run.emitted.len()
            + 1
            + 3 * run.mem_ops.len()
            + sim.memo_post_words();
        let need = self.arena.len() + words;
        if need > BUDGET_WORDS || self.find(hash, key).is_some() {
            return;
        }
        if need > self.arena.capacity() {
            // Grow geometrically, but never past the budget.
            let target = (self.arena.capacity() * 2).clamp(need, BUDGET_WORDS);
            self.arena.reserve_exact(target - self.arena.len());
        }
        let at = self.arena.len();
        let a = &mut self.arena;
        a.push(self.index.get(&hash).map_or(END, |&prev| prev as u64));
        a.push(key.len() as u64);
        a.extend_from_slice(key);
        a.extend([run.cycles, run.energy_j.to_bits(), events]);
        a.push(run.vars_out.len() as u64);
        a.extend(run.vars_out.iter().map(|&v| v as u64));
        a.push(run.emitted.len() as u64);
        for &(e, v) in &run.emitted {
            a.extend([
                u64::from(e.0),
                u64::from(v.is_some()),
                v.unwrap_or(0) as u64,
            ]);
        }
        a.push(run.mem_ops.len() as u64);
        for &(addr, write, data) in &run.mem_ops {
            a.extend([addr, u64::from(write), data as u64]);
        }
        sim.pack_memo_post(a);
        debug_assert_eq!(a.len(), at + words);
        // Link only once the entry is complete.
        self.index.insert(hash, at);
    }

    /// Offset of the entry whose key equals `key`, if any.
    fn find(&self, hash: u64, key: &[u64]) -> Option<usize> {
        let mut at = *self.index.get(&hash)? as u64;
        while at != END {
            let i = at as usize;
            let len = self.arena[i + 1] as usize;
            if self.arena[i + 2..i + 2 + len] == *key {
                return Some(i);
            }
            at = self.arena[i];
        }
        None
    }

    /// Drops every entry, keeping the storage for the next sweep.
    pub(crate) fn empty(&mut self) {
        self.index.clear();
        self.arena.clear();
    }

    /// Lookups answered from the memo.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found no entry.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Arena bytes the entries occupy.
    pub(crate) fn bytes(&self) -> usize {
        self.arena.len() * 8
    }

    /// Arena bytes allocated, held entries or not.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.arena.capacity() * 8
    }
}

/// Hash of a memo key: locates candidate entries, never decides a hit.
pub(crate) fn hash_key(key: &[u64]) -> u64 {
    key.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Sequential reader over an entry's payload words.
struct Reader<'a> {
    words: &'a [u64],
    at: usize,
}

impl Reader<'_> {
    fn word(&mut self) -> u64 {
        self.at += 1;
        self.words[self.at - 1]
    }

    fn count(&mut self) -> usize {
        self.word() as usize
    }
}
