//! Structural synthesis of CFSM transitions into gate-level FSMDs.
//!
//! The POLIS flow synthesizes each hardware-mapped CFSM into a netlist
//! that the (modified SIS) gate-level power estimator simulates. This
//! module reproduces that step: every transition body becomes a one-hot
//! controller over *segments* (cycle-sized slices of CFG basic blocks)
//! plus a word-level datapath over the process variables, built from the
//! [`bus`](crate::bus) library.
//!
//! ## Run protocol
//!
//! The co-simulation master drives a synthesized transition the way the
//! paper's master drives the HW power simulator ("state, input values,
//! commands" in; "cycles, power" out — Fig. 2b):
//!
//! 1. **load cycle** — variable values are forced through the load port;
//! 2. **start cycle** — the controller leaves idle;
//! 3. **execution cycles** — one segment per cycle until `done`;
//!    shared-memory reads are a two-cycle issue/capture handshake, with
//!    the master supplying the read data between cycles.
//!
//! The reported cycle count therefore includes the two synchronization
//! overhead cycles per firing.
//!
//! ## Limitations
//!
//! Division, remainder, and shifts by a non-constant amount have no
//! structural implementation ([`SynthError::UnsupportedOp`]); processes
//! using them belong in software. Transition guards are evaluated by the
//! behavioral master (their energy is folded into the controller).

use crate::bus::{
    adder, bitwise, bitwise_not, const_bus, equal, input_bus, less_than_signed, mask_to_width,
    multiplier, negate, nonzero, shift_left_const, shift_right_const, sign_extend, Bus,
};
use crate::memo::{hash_key, FiringMemo, BUDGET};
use crate::netlist::{GateKind, NetId, Netlist, ValidateNetlistError};
use crate::power::{NetEnergies, PowerConfig};
use crate::sim::{SimKernel, SimPlan, Simulator};
use cfsm::{BinOp, Cfg, Cfsm, EventId, Expr, Stmt, Terminator, TransitionId, UnOp, VarId};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::marker::PhantomData;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Datapath widths synthesis supports ([`SynthConfig::with_width`]).
const WIDTHS: RangeInclusive<usize> = 1..=63;

/// Synthesis parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthConfig {
    /// Datapath word width in bits (values wrap modulo 2^width), in
    /// `1..=63` (see [`SynthConfig::validate`]).
    pub width: usize,
}

impl SynthConfig {
    /// 16-bit datapath — wide enough for the paper's example systems
    /// (byte streams, timestamps, 16-bit checksums).
    pub fn new() -> Self {
        SynthConfig { width: 16 }
    }

    /// Sets the datapath width.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 63`.
    pub fn with_width(width: usize) -> Self {
        assert!(WIDTHS.contains(&width), "width must be in 1..=63");
        SynthConfig { width }
    }

    /// Checks the parameters. `width` is a public field, so a struct
    /// literal can bypass the check in [`SynthConfig::with_width`].
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidWidth`] unless `1 <= width <= 63`.
    pub fn validate(&self) -> Result<(), SynthError> {
        if WIDTHS.contains(&self.width) {
            Ok(())
        } else {
            Err(SynthError::InvalidWidth(self.width))
        }
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig::new()
    }
}

/// Errors from synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The operator has no structural implementation.
    UnsupportedOp(&'static str),
    /// The datapath width is outside `1..=63`.
    InvalidWidth(usize),
    /// The generated netlist failed validation (internal error).
    Netlist(ValidateNetlistError),
    /// An internal synthesis invariant was violated (a bug, reported as
    /// an error instead of a panic).
    Internal(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::UnsupportedOp(op) => {
                write!(f, "operator {op} has no hardware implementation")
            }
            SynthError::InvalidWidth(w) => {
                write!(f, "datapath width {w} is outside 1..=63")
            }
            SynthError::Netlist(e) => write!(f, "generated netlist invalid: {e}"),
            SynthError::Internal(what) => {
                write!(f, "internal synthesis invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for SynthError {}

impl From<ValidateNetlistError> for SynthError {
    fn from(e: ValidateNetlistError) -> Self {
        SynthError::Netlist(e)
    }
}

/// A cycle-sized slice of a basic block.
#[derive(Debug, Clone)]
struct Segment {
    /// Capture the memory read data into this variable at segment entry.
    capture: Option<VarId>,
    assigns: Vec<(VarId, Expr)>,
    emits: Vec<(EventId, Option<Expr>)>,
    mem_issue: Option<MemIssue>,
    next: SegNext,
}

#[derive(Debug, Clone)]
enum MemIssue {
    Read(Expr),
    Write(Expr, Expr),
}

#[derive(Debug, Clone)]
enum SegNext {
    Goto(usize),
    Branch {
        cond: Expr,
        then_seg: usize,
        else_seg: usize,
    },
    Done,
}

/// Splits a CFG into segments: each memory operation ends a segment (one
/// bus transaction per cycle; reads capture in the following segment).
fn segment_cfg(body: &cfsm::Cfg) -> Vec<Segment> {
    let fresh = |capture: Option<VarId>| Segment {
        capture,
        assigns: Vec::new(),
        emits: Vec::new(),
        mem_issue: None,
        next: SegNext::Done, // patched below
    };
    // First pass: per-block segment lists.
    let mut per_block: Vec<Vec<Segment>> = Vec::with_capacity(body.len());
    for block in body.blocks() {
        let mut segs = vec![fresh(None)];
        for stmt in &block.stmts {
            let cur = segs.len() - 1;
            match stmt {
                Stmt::Assign { var, expr } => segs[cur].assigns.push((*var, expr.clone())),
                Stmt::Emit { event, value } => segs[cur].emits.push((*event, value.clone())),
                Stmt::MemRead { var, addr } => {
                    segs[cur].mem_issue = Some(MemIssue::Read(addr.clone()));
                    segs.push(fresh(Some(*var)));
                }
                Stmt::MemWrite { addr, value } => {
                    segs[cur].mem_issue = Some(MemIssue::Write(addr.clone(), value.clone()));
                    segs.push(fresh(None));
                }
            }
        }
        per_block.push(segs);
    }
    // Block -> first segment index.
    let mut first = Vec::with_capacity(per_block.len());
    let mut total = 0usize;
    for segs in &per_block {
        first.push(total);
        total += segs.len();
    }
    // Second pass: link.
    let mut out = Vec::with_capacity(total);
    for (bi, segs) in per_block.into_iter().enumerate() {
        let base = first[bi];
        let n = segs.len();
        for (si, mut seg) in segs.into_iter().enumerate() {
            seg.next = if si + 1 < n {
                SegNext::Goto(base + si + 1)
            } else {
                match &body.blocks()[bi].term {
                    Terminator::Goto(t) => SegNext::Goto(first[t.0 as usize]),
                    Terminator::Branch {
                        cond,
                        then_block,
                        else_block,
                    } => SegNext::Branch {
                        cond: cond.clone(),
                        then_seg: first[then_block.0 as usize],
                        else_seg: first[else_block.0 as usize],
                    },
                    Terminator::Return => SegNext::Done,
                }
            };
            out.push(seg);
        }
    }
    out
}

/// I/O ports of one synthesized transition.
#[derive(Debug, Clone)]
struct Ports {
    start: NetId,
    load: NetId,
    var_in: Vec<Bus>,
    var_q: Vec<Bus>,
    ev_in: BTreeMap<EventId, Bus>,
    mem_data_in: Bus,
    done: NetId,
    emit_pulse: BTreeMap<EventId, NetId>,
    emit_value: BTreeMap<EventId, Bus>,
    mem_re: NetId,
    mem_we: NetId,
    mem_addr: Bus,
    mem_wdata: Bus,
}

/// The product of synthesizing one transition: the simulation plan (the
/// netlist plus everything derived from it alone), the port map, and per
/// [`PowerConfig`] its instances run under, a net-energy table and an
/// exact firing memo. Shared via the global synthesis memo, so every
/// exploration point (and every simulator instance) evaluating the same
/// behavioral spec at the same synthesis parameters holds one copy.
/// Everything but the per-configuration list is immutable.
#[derive(Debug)]
struct SynthesizedTransition {
    /// The synthesis-memo key it was built for: the body, the variable
    /// count, and the datapath width ([`synth_key_hash`]).
    body: Cfg,
    n_vars: usize,
    width: usize,
    plan: Arc<SimPlan>,
    ports: Ports,
    gate_count: usize,
    /// One entry per [`PowerConfig::key_bits`], built on first use.
    powered: Mutex<Vec<Arc<Powered>>>,
}

/// What every instance of a transition under one [`PowerConfig`]
/// shares: the net-energy table, and the firing memo, whose keys leave
/// the configuration out.
#[derive(Debug)]
struct Powered {
    energies: Arc<NetEnergies>,
    memo: Mutex<FiringMemo>,
}

impl SynthesizedTransition {
    /// Whether this transition was built for the key `(body, n_vars,
    /// width)`, compared in full.
    fn is_for(&self, body: &Cfg, n_vars: usize, width: usize) -> bool {
        self.n_vars == n_vars && self.width == width && self.body == *body
    }

    /// The energy table and firing memo for `power`, built on its first
    /// request and shared by every later one.
    fn powered_for(&self, power: &PowerConfig) -> Arc<Powered> {
        let key = power.key_bits();
        let mut list = self.lock_powered();
        if let Some(p) = list.iter().find(|p| p.energies.power_key == key) {
            return Arc::clone(p);
        }
        let p = Arc::new(Powered {
            energies: Arc::new(NetEnergies::new(self.plan.netlist(), power)),
            memo: Mutex::new(FiringMemo::new(&BUDGET)),
        });
        list.push(Arc::clone(&p));
        p
    }

    fn lock_powered(&self) -> MutexGuard<'_, Vec<Arc<Powered>>> {
        // An entry is pushed only once complete, so a panicked holder
        // leaves the list valid.
        self.powered.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The global synthesis memo plus its hit/miss counters.
struct SynthCache {
    /// Synthesized transitions by [`synth_key_hash`]; the full key each
    /// one keeps decides a hit.
    map: HashMap<u64, Vec<Arc<SynthesizedTransition>>>,
    /// Characterized macro-op energies ([`crate::macro_op_energies`]) by
    /// datapath width and [`PowerConfig::key_bits`].
    macro_ops: HashMap<(usize, [u64; 3]), Arc<[f64]>>,
    hits: u64,
    misses: u64,
}

impl SynthCache {
    /// The transition built for `(body, n_vars, width)`, if any.
    fn find(
        &self,
        hash: u64,
        body: &Cfg,
        n_vars: usize,
        width: usize,
    ) -> Option<&Arc<SynthesizedTransition>> {
        self.map
            .get(&hash)?
            .iter()
            .find(|t| t.is_for(body, n_vars, width))
    }

    /// Every memoized transition.
    fn transitions(&self) -> impl Iterator<Item = &Arc<SynthesizedTransition>> {
        self.map.values().flatten()
    }
}

static SYNTH_CACHE: OnceLock<Mutex<SynthCache>> = OnceLock::new();

fn lock_synth_cache() -> std::sync::MutexGuard<'static, SynthCache> {
    let cache = SYNTH_CACHE.get_or_init(|| {
        Mutex::new(SynthCache {
            map: HashMap::new(),
            macro_ops: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    });
    match cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The memo key's hash: of everything netlist construction depends on —
/// the transition body, the variable count, and the datapath width.
/// Power parameters are deliberately absent: they shape the energy
/// tables, never the netlist. The hash only locates candidates; a hit
/// compares the key in full ([`SynthesizedTransition::is_for`]).
fn synth_key_hash(body: &Cfg, n_vars: usize, width: usize) -> u64 {
    let mut h = DefaultHasher::new();
    (body, n_vars, width).hash(&mut h);
    h.finish()
}

/// `(hits, misses)` of the global synthesis memo since process start (or
/// the last [`clear_synth_cache`]).
pub fn synth_cache_stats() -> (u64, u64) {
    let cache = lock_synth_cache();
    (cache.hits, cache.misses)
}

/// Empties the global synthesis memo — netlists, the simulation plans
/// built from them, their net-energy tables, the firing memos with their
/// storage, and the characterized macro-op tables — and zeroes its
/// counters, those of [`firing_memo_stats`] included. Only benchmarks
/// isolating cold-vs-warm set-up need this; correctness never depends on
/// the cache's contents.
pub fn clear_synth_cache() {
    let mut cache = lock_synth_cache();
    cache.map.clear();
    cache.macro_ops.clear();
    cache.hits = 0;
    cache.misses = 0;
}

/// The memoized macro-op table for `width` and `power`, built by
/// `characterize` on a miss.
pub(crate) fn memoized_macro_op_energies(
    width: usize,
    power: &PowerConfig,
    characterize: impl FnOnce() -> Arc<[f64]>,
) -> Arc<[f64]> {
    let key = (width, power.key_bits());
    if let Some(table) = lock_synth_cache().macro_ops.get(&key) {
        return Arc::clone(table);
    }
    // Characterized outside the lock, like a synthesis miss; the first
    // insert wins so all callers share a single table.
    let built = characterize();
    Arc::clone(lock_synth_cache().macro_ops.entry(key).or_insert(built))
}

/// Serializes the tests that assert what the process-wide memo holds
/// (shared plans, tables, counters) against those that clear it; the
/// other tests never depend on the memo's contents.
#[cfg(test)]
pub(crate) fn memo_lock() -> MutexGuard<'static, ()> {
    static MEMO_LOCK: Mutex<()> = Mutex::new(());
    MEMO_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_memo(memo: &Mutex<FiringMemo>) -> MutexGuard<'_, FiringMemo> {
    // Every update leaves the memo valid (an entry is linked into the
    // index only once complete), so a panicked holder harms nothing.
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live [`FiringMemoScope`]s, process-wide.
static FIRING_MEMO_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Live [`FiringMemoScope`]s entered on this thread.
    static THREAD_MEMO_SCOPES: Cell<usize> = const { Cell::new(0) };
}

/// Whether firings on this thread consult their transition's memo.
fn firing_memo_in_scope() -> bool {
    THREAD_MEMO_SCOPES.with(|n| n.get() > 0)
}

/// Keeps the exact firing memo in use on the current thread for as long
/// as it lives.
///
/// While a scope is alive on a thread, every event-driven
/// [`HwTransition`] fired on that thread looks each firing up in its
/// synthesized transition's memo and, on a hit, copies the stored
/// post-firing state into its simulator instead of stepping; a miss is
/// simulated and stored. Results are bit-identical either way, and
/// firings on threads without a scope keep simulating. Design-space
/// sweeps hold one on each worker for their duration, since their points
/// replay the same firings. When the last scope in the process drops,
/// every memo is emptied.
#[derive(Debug)]
#[must_use = "the firing memo is consulted only while the scope is alive"]
pub struct FiringMemoScope {
    /// Not `Send`: the scope counts on the thread that entered it.
    _thread: PhantomData<*const ()>,
}

impl FiringMemoScope {
    /// Opens a scope on the current thread.
    pub fn enter() -> Self {
        FIRING_MEMO_SCOPES.fetch_add(1, Ordering::SeqCst);
        THREAD_MEMO_SCOPES.with(|n| n.set(n.get() + 1));
        FiringMemoScope {
            _thread: PhantomData,
        }
    }
}

impl Drop for FiringMemoScope {
    fn drop(&mut self) {
        THREAD_MEMO_SCOPES.with(|n| n.set(n.get() - 1));
        if FIRING_MEMO_SCOPES.fetch_sub(1, Ordering::SeqCst) == 1 {
            let cache = lock_synth_cache();
            for t in cache.transitions() {
                for p in t.lock_powered().iter() {
                    lock_memo(&p.memo).empty();
                }
            }
        }
    }
}

/// Counters of the exact firing memo, summed over the transitions in
/// the synthesis memo (see [`firing_memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiringMemoStats {
    /// Firings answered from a memo.
    pub hits: u64,
    /// Memo lookups that found no entry, so the firing was simulated.
    pub misses: u64,
    /// Misses whose firing was not stored: past its memo's allowance
    /// the key had not been seen before while the memo's hits trailed
    /// its entries, or the process-wide cap
    /// ([`FIRING_MEMO_CAP_BYTES`](crate::FIRING_MEMO_CAP_BYTES)) left no
    /// room.
    pub declined: u64,
    /// Bytes of entries held now (zero while no [`FiringMemoScope`] is
    /// alive in the process).
    pub bytes: usize,
}

/// Hits, misses and declined admissions of the firing memos since
/// process start (or the last [`clear_synth_cache`]), and the bytes
/// their entries hold now.
pub fn firing_memo_stats() -> FiringMemoStats {
    let cache = lock_synth_cache();
    let mut s = FiringMemoStats::default();
    for t in cache.transitions() {
        for p in t.lock_powered().iter() {
            let m = lock_memo(&p.memo);
            s.hits += m.hits();
            s.misses += m.misses();
            s.declined += m.declined();
            s.bytes += m.bytes();
        }
    }
    s
}

/// One synthesized, simulatable transition.
///
/// The gate-level simulator state persists across runs (hardware is not
/// reset between firings), so the energy of a firing depends on the
/// previous datapath contents — the source of the per-path energy
/// variance that motivates the paper's caching thresholds (Fig. 4).
/// The netlist, its simulation plan, and the net-energy table of the
/// instance's [`PowerConfig`] live behind [`Arc`]s in the synthesis
/// memo; only the simulator state (values, toggles, energy) is
/// per-instance.
#[derive(Debug)]
pub struct HwTransition {
    shared: Arc<SynthesizedTransition>,
    /// The energy table and firing memo of the instance's `PowerConfig`.
    powered: Arc<Powered>,
    sim: Simulator,
    /// Scratch for the firing memo's key, reused across firings.
    memo_key: Vec<u64>,
    /// Firings answered by the firing memo.
    memo_hits: u64,
}

/// The result of running one transition on the gate-level simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct HwRun {
    /// Total cycles, including the load and start synchronization cycles.
    pub cycles: u64,
    /// Energy dissipated over those cycles, in joules.
    pub energy_j: f64,
    /// Final variable values (sign-extended back to i64).
    pub vars_out: Vec<i64>,
    /// Events emitted, in cycle order.
    pub emitted: Vec<(EventId, Option<i64>)>,
    /// Memory transactions issued: `(addr, write?, write_data)`.
    pub mem_ops: Vec<(u64, bool, i64)>,
}

/// Guards against malformed controllers spinning forever.
const MAX_RUN_CYCLES: u64 = 50_000_000;

impl HwTransition {
    /// A fresh instance over a shared synthesized transition, running
    /// `kernel`.
    fn instantiate(
        shared: Arc<SynthesizedTransition>,
        power: &PowerConfig,
        kernel: SimKernel,
    ) -> Self {
        let powered = shared.powered_for(power);
        let energies = Arc::clone(&powered.energies);
        let sim = Simulator::from_plan(Arc::clone(&shared.plan), energies, kernel);
        HwTransition {
            shared,
            powered,
            sim,
            memo_key: Vec::new(),
            memo_hits: 0,
        }
    }

    /// Runs the transition: `vars_in` are the live variable values,
    /// `event_value` supplies triggering event values, `mem_reads` the
    /// ordered functional read data (from the behavioral execution).
    ///
    /// Inside a [`FiringMemoScope`] on the calling thread, an
    /// event-driven instance answers a firing it finds in the
    /// transition's memo by copying the stored post-firing state instead
    /// of stepping (bit-identical results).
    ///
    /// # Panics
    ///
    /// Panics if more reads are issued than `mem_reads` supplies, or if
    /// the controller exceeds an internal cycle budget.
    pub fn run(
        &mut self,
        vars_in: &[i64],
        event_value: &dyn Fn(EventId) -> i64,
        mem_reads: &[i64],
    ) -> HwRun {
        let w = self.shared.width;
        let ports = &self.shared.ports;
        // Load-cycle inputs.
        self.sim.set_input(ports.start, false);
        self.sim.set_input(ports.load, true);
        for (v, bus) in ports.var_in.iter().enumerate() {
            self.sim
                .set_input_bus(bus.nets(), mask_to_width(vars_in[v], w));
        }
        for (&e, bus) in &ports.ev_in {
            self.sim
                .set_input_bus(bus.nets(), mask_to_width(event_value(e), w));
        }
        let run = if self.sim.memoizable() && firing_memo_in_scope() {
            self.run_memoized(mem_reads)
        } else {
            self.run_scalar(mem_reads)
        };
        // The run protocols read each cycle's energy as it is produced;
        // nothing needs the history afterwards.
        self.sim.clear_history();
        run
    }

    /// [`HwTransition::run_scalar`] behind the firing memo of the
    /// instance's `PowerConfig`: the key is the simulator's compact state
    /// ([`Simulator::pack_memo_key`], after the load-cycle inputs are
    /// forced) plus the width-masked `mem_reads`, whose number the key's
    /// length gives (the state part's length is fixed per netlist).
    fn run_memoized(&mut self, mem_reads: &[i64]) -> HwRun {
        let w = self.shared.width;
        let mut key = std::mem::take(&mut self.memo_key);
        key.clear();
        self.sim.pack_memo_key(&mut key);
        key.extend(mem_reads.iter().map(|&r| mask_to_width(r, w)));
        let hash = hash_key(&key);
        let post_words = self.sim.memo_post_words();
        let hit = {
            let mut memo = lock_memo(&self.powered.memo);
            memo.lookup(hash, &key, post_words).map(|hit| {
                self.sim
                    .restore_memo_post(hit.post, hit.run.cycles, hit.events);
                hit.run
            })
        };
        let run = match hit {
            Some(mut run) => {
                self.memo_hits += 1;
                run.vars_out = self.vars_out();
                run
            }
            None => {
                let events = self.sim.gate_events();
                let run = self.run_scalar(mem_reads);
                let events = self.sim.gate_events() - events;
                let sim = &self.sim;
                lock_memo(&self.powered.memo).admit(hash, &key, &run, events, post_words, |post| {
                    sim.pack_memo_post(post)
                });
                run
            }
        };
        self.memo_key = key;
        run
    }

    /// The variable registers' values, sign-extended from the datapath
    /// width: a firing's `vars_out`, read once it has ended.
    fn vars_out(&self) -> Vec<i64> {
        let w = self.shared.width;
        self.shared
            .ports
            .var_q
            .iter()
            .map(|bus| sign_extend(self.sim.value_bus(bus.nets()), w))
            .collect()
    }

    /// The scalar run protocol from the load cycle on, with the load
    /// cycle's inputs already forced by [`HwTransition::run`].
    fn run_scalar(&mut self, mem_reads: &[i64]) -> HwRun {
        let w = self.shared.width;
        let sim = &mut self.sim;
        // Load cycle.
        let mut energy = sim.step();
        let mut cycles = 1u64;
        // Start handshake cycle.
        sim.set_input(self.shared.ports.load, false);
        sim.set_input(self.shared.ports.start, true);
        energy += sim.step();
        cycles += 1;
        sim.set_input(self.shared.ports.start, false);
        // Execution cycles.
        let mut emitted = Vec::new();
        let mut mem_ops = Vec::new();
        let mut next_read = 0usize;
        loop {
            energy += sim.step();
            cycles += 1;
            assert!(
                cycles < MAX_RUN_CYCLES,
                "hardware transition exceeded cycle budget; runaway controller?"
            );
            for (&e, &pulse) in &self.shared.ports.emit_pulse {
                if sim.value(pulse) {
                    let val = self
                        .shared
                        .ports
                        .emit_value
                        .get(&e)
                        .map(|bus| sign_extend(sim.value_bus(bus.nets()), w));
                    emitted.push((e, val));
                }
            }
            if sim.value(self.shared.ports.mem_re) {
                let addr = sim.value_bus(self.shared.ports.mem_addr.nets());
                mem_ops.push((addr, false, 0));
                assert!(
                    next_read < mem_reads.len(),
                    "hardware issued more reads than the behavioral execution supplied"
                );
                sim.set_input_bus(
                    self.shared.ports.mem_data_in.nets(),
                    mask_to_width(mem_reads[next_read], w),
                );
                next_read += 1;
            }
            if sim.value(self.shared.ports.mem_we) {
                let addr = sim.value_bus(self.shared.ports.mem_addr.nets());
                let data = sign_extend(sim.value_bus(self.shared.ports.mem_wdata.nets()), w);
                mem_ops.push((addr, true, data));
            }
            if sim.value(self.shared.ports.done) {
                break;
            }
        }
        HwRun {
            cycles,
            energy_j: energy,
            vars_out: self.vars_out(),
            emitted,
            mem_ops,
        }
    }

    /// Steps the netlist `cycles` times with held inputs — the component
    /// idling while it waits for the bus — and returns the energy. The
    /// paper observes that the integration architecture changes component
    /// power "even though the HW and SW parts are unchanged" (§5.3); this
    /// is that mechanism.
    ///
    /// Right after a firing the first held cycle still toggles nets (the
    /// controller leaves `done` and returns to idle). Once a held cycle
    /// changes no flop, every later one charges exactly the clock-tree
    /// energy, and the event-driven kernel fast-forwards the rest of the
    /// wait without evaluating a gate ([`Simulator::run`]); the result is
    /// bit for bit the stepped one.
    pub fn idle_step(&mut self, cycles: u64) -> f64 {
        let energy = self.sim.run(cycles);
        self.sim.clear_history();
        energy
    }

    /// Clock-tree energy per idle cycle, joules: the analytic idle charge
    /// used when an acceleration technique skips the gate-level
    /// simulation. It leaves out the toggles of the first held cycle after
    /// a firing, so [`idle_step`](HwTransition::idle_step) over a wait
    /// slightly exceeds the wait times this charge.
    pub fn idle_energy_per_cycle_j(&self) -> f64 {
        self.sim.clock_energy_per_cycle_j()
    }

    /// Gates in this transition's netlist.
    pub fn gate_count(&self) -> usize {
        self.shared.gate_count
    }

    /// The shared synthesized netlist this instance simulates.
    pub fn netlist(&self) -> &Arc<Netlist> {
        self.shared.plan.netlist()
    }

    /// `(gate_evals, gate_events)` of this instance's simulator so far.
    /// `gate_evals` counts gate evaluations actually performed, so a
    /// firing the memo answered adds none; `gate_events` counts net value
    /// changes and is kernel- and memo-invariant (a memo hit adds the
    /// stored firing's count).
    pub fn gate_stats(&self) -> (u64, u64) {
        (self.sim.gate_evals(), self.sim.gate_events())
    }

    /// Firings of this instance answered by the firing memo.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }
}

/// A hardware-mapped CFSM: one synthesized netlist per transition.
///
/// # Examples
///
/// ```
/// use cfsm::{Cfsm, Cfg, Stmt, Expr, EventId};
/// use gatesim::{HwCfsm, SynthConfig, PowerConfig};
///
/// let mut b = Cfsm::builder("inc");
/// let s = b.state("s");
/// let v = b.var("v", 0);
/// let t = b.transition(
///     s,
///     vec![EventId(0)],
///     None,
///     Cfg::straight_line(vec![Stmt::Assign {
///         var: v,
///         expr: Expr::add(Expr::Var(v), Expr::Const(1)),
///     }]),
///     s,
/// );
/// let machine = b.finish()?;
/// let mut hw = HwCfsm::synthesize(&machine, &SynthConfig::new(), &PowerConfig::date2000_defaults())?;
/// let run = hw.transition_mut(t).run(&[41], &|_| 0, &[]);
/// assert_eq!(run.vars_out, vec![42]);
/// assert!(run.energy_j > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct HwCfsm {
    name: String,
    transitions: Vec<HwTransition>,
}

impl HwCfsm {
    /// Synthesizes every transition of `machine`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidWidth`] for a datapath width outside
    /// `1..=63`, and [`SynthError::UnsupportedOp`] for operators with no
    /// structural implementation.
    pub fn synthesize(
        machine: &Cfsm,
        config: &SynthConfig,
        power: &PowerConfig,
    ) -> Result<Self, SynthError> {
        config.validate()?;
        let n_vars = machine.vars().len();
        let mut transitions = Vec::with_capacity(machine.transitions().len());
        for t in machine.transitions() {
            transitions.push(synthesize_transition(t, n_vars, config, power)?);
        }
        Ok(HwCfsm {
            name: machine.name().to_string(),
            transitions,
        })
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mutable access to one synthesized transition.
    pub fn transition_mut(&mut self, id: TransitionId) -> &mut HwTransition {
        &mut self.transitions[id.0 as usize]
    }

    /// Immutable access to one synthesized transition.
    pub fn transition(&self, id: TransitionId) -> &HwTransition {
        &self.transitions[id.0 as usize]
    }

    /// Total `(gate_evals, gate_events)` across all transitions'
    /// simulators (see [`HwTransition::gate_stats`]).
    pub fn gate_stats(&self) -> (u64, u64) {
        self.transitions.iter().fold((0, 0), |(evals, events), t| {
            let (e, v) = t.gate_stats();
            (evals + e, events + v)
        })
    }

    /// Total firings answered by the firing memo across all transitions.
    pub fn memo_hits(&self) -> u64 {
        self.transitions.iter().map(HwTransition::memo_hits).sum()
    }

    /// Total gates across all transitions.
    pub fn gate_count(&self) -> usize {
        self.transitions.iter().map(|t| t.gate_count()).sum()
    }

    /// Number of synthesized transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }
}

fn collect_event_reads_expr(e: &Expr, out: &mut BTreeSet<EventId>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::EventValue(ev) => {
            out.insert(*ev);
        }
        Expr::Unary(_, a) => collect_event_reads_expr(a, out),
        Expr::Binary(_, a, b) => {
            collect_event_reads_expr(a, out);
            collect_event_reads_expr(b, out);
        }
    }
}

/// Synthesizes one expression into the datapath. `current` maps variables
/// to their value buses within the active segment.
fn synth_expr(
    nl: &mut Netlist,
    expr: &Expr,
    current: &HashMap<VarId, Bus>,
    ev_in: &BTreeMap<EventId, Bus>,
    width: usize,
) -> Result<Bus, SynthError> {
    Ok(match expr {
        Expr::Const(c) => const_bus(nl, width, mask_to_width(*c, width)),
        Expr::Var(v) => current
            .get(v)
            .ok_or_else(|| SynthError::Internal(format!("variable {v} not in datapath")))?
            .clone(),
        Expr::EventValue(e) => ev_in
            .get(e)
            .ok_or_else(|| {
                SynthError::Internal(format!("no input bus for read event {}", e.0))
            })?
            .clone(),
        Expr::Unary(op, a) => {
            let ba = synth_expr(nl, a, current, ev_in, width)?;
            match op {
                UnOp::Neg => negate(nl, &ba),
                UnOp::Not => bitwise_not(nl, &ba),
                UnOp::LNot => {
                    let nz = nonzero(nl, &ba);
                    let b = nl.gate(GateKind::Not, vec![nz]);
                    extend_bit(nl, b, width)
                }
            }
        }
        Expr::Binary(op, a, b) => {
            let ba = synth_expr(nl, a, current, ev_in, width)?;
            // Constant shift amounts short-circuit before synthesizing b.
            match op {
                BinOp::Shl | BinOp::Shr => {
                    let amount = match **b {
                        Expr::Const(c) if c >= 0 => c as usize % width.max(1),
                        _ => {
                            return Err(SynthError::UnsupportedOp(
                                "shift by non-constant amount",
                            ))
                        }
                    };
                    return Ok(if matches!(op, BinOp::Shl) {
                        shift_left_const(nl, &ba, amount)
                    } else {
                        shift_right_const(nl, &ba, amount)
                    });
                }
                _ => {}
            }
            let bb = synth_expr(nl, b, current, ev_in, width)?;
            match op {
                BinOp::Add => {
                    let c0 = nl.constant(false);
                    adder(nl, &ba, &bb, c0).0
                }
                BinOp::Sub => {
                    let nb = bitwise_not(nl, &bb);
                    let c1 = nl.constant(true);
                    adder(nl, &ba, &nb, c1).0
                }
                BinOp::Mul => multiplier(nl, &ba, &bb),
                BinOp::Div => return Err(SynthError::UnsupportedOp("division")),
                BinOp::Rem => return Err(SynthError::UnsupportedOp("remainder")),
                BinOp::And => bitwise(nl, GateKind::And, &ba, &bb),
                BinOp::Or => bitwise(nl, GateKind::Or, &ba, &bb),
                BinOp::Xor => bitwise(nl, GateKind::Xor, &ba, &bb),
                BinOp::Shl | BinOp::Shr => unreachable!("handled above"),
                BinOp::Eq => {
                    let b = equal(nl, &ba, &bb);
                    extend_bit(nl, b, width)
                }
                BinOp::Ne => {
                    let e = equal(nl, &ba, &bb);
                    let b = nl.gate(GateKind::Not, vec![e]);
                    extend_bit(nl, b, width)
                }
                BinOp::Lt => {
                    let b = less_than_signed(nl, &ba, &bb);
                    extend_bit(nl, b, width)
                }
                BinOp::Le => {
                    // a <= b  ==  !(b < a)
                    let gt = less_than_signed(nl, &bb, &ba);
                    let b = nl.gate(GateKind::Not, vec![gt]);
                    extend_bit(nl, b, width)
                }
                BinOp::Gt => {
                    let b = less_than_signed(nl, &bb, &ba);
                    extend_bit(nl, b, width)
                }
                BinOp::Ge => {
                    let lt = less_than_signed(nl, &ba, &bb);
                    let b = nl.gate(GateKind::Not, vec![lt]);
                    extend_bit(nl, b, width)
                }
            }
        }
    })
}

/// Zero-extends a single bit to a bus.
fn extend_bit(nl: &mut Netlist, bit: NetId, width: usize) -> Bus {
    let zero = nl.constant(false);
    let mut nets = vec![bit];
    nets.resize(width, zero);
    Bus(nets)
}

/// OR-combines `(select, bus)` pairs into one bus; selects are assumed
/// one-hot. Returns a zero bus if the list is empty.
fn onehot_merge(nl: &mut Netlist, width: usize, arms: &[(NetId, Bus)]) -> Bus {
    if arms.is_empty() {
        return const_bus(nl, width, 0);
    }
    let mut bits = Vec::with_capacity(width);
    for i in 0..width {
        let masked: Vec<NetId> = arms
            .iter()
            .map(|(sel, bus)| nl.gate(GateKind::And, vec![*sel, bus.0[i]]))
            .collect();
        bits.push(nl.gate(GateKind::Or, masked));
    }
    Bus(bits)
}

/// ORs a list of nets (0 if empty).
fn or_all(nl: &mut Netlist, nets: Vec<NetId>) -> NetId {
    if nets.is_empty() {
        nl.constant(false)
    } else {
        nl.gate(GateKind::Or, nets)
    }
}

/// Memoizing front end: looks the transition up in the global synthesis
/// cache and only runs structural synthesis — and builds the simulation
/// plan — on a miss. Every instance, across repeated `synthesize` calls
/// and across parallel exploration workers, shares one `Arc<SimPlan>`
/// and one energy table per [`PowerConfig`]; the simulator's mutable
/// state is built fresh per instance, and its kernel is chosen per
/// instance, so `GATESIM_KERNEL` applies on a warm memo too.
fn synthesize_transition(
    t: &cfsm::Transition,
    n_vars: usize,
    config: &SynthConfig,
    power: &PowerConfig,
) -> Result<HwTransition, SynthError> {
    let width = config.width;
    let hash = synth_key_hash(&t.body, n_vars, width);
    let cached = {
        let mut cache = lock_synth_cache();
        let found = cache.find(hash, &t.body, n_vars, width).map(Arc::clone);
        if found.is_some() {
            cache.hits += 1;
        } else {
            cache.misses += 1;
        }
        found
    };
    let shared = match cached {
        Some(shared) => shared,
        None => {
            let built = Arc::new(build_transition(t, n_vars, config)?);
            let mut cache = lock_synth_cache();
            // A parallel worker may have raced us to the build; the first
            // insert wins so all instances share a single netlist.
            match cache.find(hash, &t.body, n_vars, width) {
                Some(first) => Arc::clone(first),
                None => {
                    cache.map.entry(hash).or_default().push(Arc::clone(&built));
                    built
                }
            }
        }
    };
    let kernel = SimKernel::from_env().map_err(ValidateNetlistError::from)?;
    Ok(HwTransition::instantiate(shared, power, kernel))
}

/// Structural synthesis proper: builds the netlist, its simulation plan,
/// and the port map for one transition (no simulator state; the result
/// is immutable and shared).
fn build_transition(
    t: &cfsm::Transition,
    n_vars: usize,
    config: &SynthConfig,
) -> Result<SynthesizedTransition, SynthError> {
    let w = config.width;
    let segments = segment_cfg(&t.body);
    let n_segs = segments.len();
    let mut nl = Netlist::new();

    // Ports.
    let start = nl.input();
    let load = nl.input();
    let var_in: Vec<Bus> = (0..n_vars).map(|_| input_bus(&mut nl, w)).collect();
    let mem_data_in = input_bus(&mut nl, w);
    let mut ev_reads = BTreeSet::new();
    for seg in &segments {
        for (_, e) in &seg.assigns {
            collect_event_reads_expr(e, &mut ev_reads);
        }
        for (_, v) in &seg.emits {
            if let Some(v) = v {
                collect_event_reads_expr(v, &mut ev_reads);
            }
        }
        match &seg.mem_issue {
            Some(MemIssue::Read(a)) => collect_event_reads_expr(a, &mut ev_reads),
            Some(MemIssue::Write(a, v)) => {
                collect_event_reads_expr(a, &mut ev_reads);
                collect_event_reads_expr(v, &mut ev_reads);
            }
            None => {}
        }
        if let SegNext::Branch { cond, .. } = &seg.next {
            collect_event_reads_expr(cond, &mut ev_reads);
        }
    }
    let ev_in: BTreeMap<EventId, Bus> = ev_reads
        .into_iter()
        .map(|e| (e, input_bus(&mut nl, w)))
        .collect();

    // Controller flops via late-bound wires.
    let idle_d = nl.wire();
    let idle_q = nl.dff(idle_d, true);
    let seg_d: Vec<NetId> = (0..n_segs).map(|_| nl.wire()).collect();
    let seg_q: Vec<NetId> = seg_d.iter().map(|&d| nl.dff(d, false)).collect();

    // Variable registers: q = dff(mux(load, var_in, mux(wen, wdata, q))).
    let var_wen: Vec<NetId> = (0..n_vars).map(|_| nl.wire()).collect();
    let var_wdata: Vec<Bus> = (0..n_vars)
        .map(|_| Bus((0..w).map(|_| nl.wire()).collect()))
        .collect();
    let mut var_q: Vec<Bus> = Vec::with_capacity(n_vars);
    for v in 0..n_vars {
        let mut q_bits = Vec::with_capacity(w);
        for i in 0..w {
            let q_fb = nl.wire();
            let inner = nl.gate(GateKind::Mux, vec![var_wen[v], var_wdata[v].0[i], q_fb]);
            let d = nl.gate(GateKind::Mux, vec![load, var_in[v].0[i], inner]);
            let q = nl.dff(d, false);
            nl.drive(q_fb, q);
            q_bits.push(q);
        }
        var_q.push(Bus(q_bits));
    }

    // Per-segment datapath.
    struct SegOut {
        writes: Vec<(VarId, Bus)>,
        emits: Vec<(EventId, Option<Bus>)>,
        mem: Option<(bool, Bus, Option<Bus>)>, // (is_write, addr, wdata)
        cond: Option<NetId>,
    }
    let mut seg_outs: Vec<SegOut> = Vec::with_capacity(n_segs);
    for seg in &segments {
        let mut current: HashMap<VarId, Bus> = (0..n_vars)
            .map(|v| (VarId(v as u32), var_q[v].clone()))
            .collect();
        let mut writes: Vec<(VarId, Bus)> = Vec::new();
        if let Some(v) = seg.capture {
            current.insert(v, mem_data_in.clone());
            writes.push((v, mem_data_in.clone()));
        }
        for (v, expr) in &seg.assigns {
            let bus = synth_expr(&mut nl, expr, &current, &ev_in, w)?;
            current.insert(*v, bus.clone());
            writes.retain(|(wv, _)| wv != v);
            writes.push((*v, bus));
        }
        let mut emits = Vec::new();
        for (e, val) in &seg.emits {
            let vb = match val {
                Some(expr) => Some(synth_expr(&mut nl, expr, &current, &ev_in, w)?),
                None => None,
            };
            emits.push((*e, vb));
        }
        let mem = match &seg.mem_issue {
            Some(MemIssue::Read(a)) => {
                let ab = synth_expr(&mut nl, a, &current, &ev_in, w)?;
                Some((false, ab, None))
            }
            Some(MemIssue::Write(a, v)) => {
                let ab = synth_expr(&mut nl, a, &current, &ev_in, w)?;
                let vb = synth_expr(&mut nl, v, &current, &ev_in, w)?;
                Some((true, ab, Some(vb)))
            }
            None => None,
        };
        let cond = match &seg.next {
            SegNext::Branch { cond, .. } => {
                let cb = synth_expr(&mut nl, cond, &current, &ev_in, w)?;
                Some(nonzero(&mut nl, &cb))
            }
            _ => None,
        };
        seg_outs.push(SegOut {
            writes,
            emits,
            mem,
            cond,
        });
    }

    // Next-state logic.
    let not_start = nl.gate(GateKind::Not, vec![start]);
    let idle_hold = nl.gate(GateKind::And, vec![idle_q, not_start]);
    let entry_edge = nl.gate(GateKind::And, vec![idle_q, start]);
    let mut incoming: Vec<Vec<NetId>> = vec![Vec::new(); n_segs];
    incoming[0].push(entry_edge);
    let mut done_edges = Vec::new();
    for (k, (seg, out)) in segments.iter().zip(&seg_outs).enumerate() {
        let active = seg_q[k];
        match &seg.next {
            SegNext::Goto(tgt) => incoming[*tgt].push(active),
            SegNext::Done => done_edges.push(active),
            SegNext::Branch {
                then_seg, else_seg, ..
            } => {
                let c = out.cond.ok_or_else(|| {
                    SynthError::Internal("branch segment has no condition net".into())
                })?;
                let nc = nl.gate(GateKind::Not, vec![c]);
                let et = nl.gate(GateKind::And, vec![active, c]);
                let ee = nl.gate(GateKind::And, vec![active, nc]);
                incoming[*then_seg].push(et);
                incoming[*else_seg].push(ee);
            }
        }
    }
    let done = or_all(&mut nl, done_edges.clone());
    let mut idle_in = vec![idle_hold];
    idle_in.extend(done_edges);
    let idle_next = nl.gate(GateKind::Or, idle_in);
    nl.drive(idle_d, idle_next);
    for (k, ins) in incoming.into_iter().enumerate() {
        let nxt = or_all(&mut nl, ins);
        nl.drive(seg_d[k], nxt);
    }

    // Variable write ports.
    for v in 0..n_vars {
        let arms: Vec<(NetId, Bus)> = seg_outs
            .iter()
            .enumerate()
            .flat_map(|(k, out)| {
                let sq = seg_q[k];
                out.writes
                    .iter()
                    .filter(|(wv, _)| wv.0 as usize == v)
                    .map(move |(_, bus)| (sq, bus.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let wen = or_all(&mut nl, arms.iter().map(|&(s, _)| s).collect());
        nl.drive(var_wen[v], wen);
        let data = onehot_merge(&mut nl, w, &arms);
        for i in 0..w {
            nl.drive(var_wdata[v].0[i], data.0[i]);
        }
    }

    // Emit ports.
    let mut emit_events = BTreeSet::new();
    for out in &seg_outs {
        for (e, _) in &out.emits {
            emit_events.insert(*e);
        }
    }
    let mut emit_pulse = BTreeMap::new();
    let mut emit_value = BTreeMap::new();
    for &e in &emit_events {
        let pulses: Vec<NetId> = seg_outs
            .iter()
            .enumerate()
            .filter(|(_, out)| out.emits.iter().any(|(oe, _)| *oe == e))
            .map(|(k, _)| seg_q[k])
            .collect();
        let pulse = or_all(&mut nl, pulses);
        nl.mark_output(format!("emit_{}", e.0), pulse);
        emit_pulse.insert(e, pulse);
        let arms: Vec<(NetId, Bus)> = seg_outs
            .iter()
            .enumerate()
            .flat_map(|(k, out)| {
                let sq = seg_q[k];
                out.emits
                    .iter()
                    .filter(|(oe, _)| *oe == e)
                    .filter_map(move |(_, v)| v.clone().map(|bus| (sq, bus)))
                    .collect::<Vec<_>>()
            })
            .collect();
        if !arms.is_empty() {
            let bus = onehot_merge(&mut nl, w, &arms);
            emit_value.insert(e, bus);
        }
    }

    // Memory port.
    let read_arms: Vec<(NetId, Bus)> = seg_outs
        .iter()
        .enumerate()
        .filter_map(|(k, out)| match &out.mem {
            Some((false, addr, _)) => Some((seg_q[k], addr.clone())),
            _ => None,
        })
        .collect();
    let write_arms: Vec<(NetId, Bus, Bus)> = seg_outs
        .iter()
        .enumerate()
        .filter_map(|(k, out)| match &out.mem {
            Some((true, addr, Some(data))) => Some((seg_q[k], addr.clone(), data.clone())),
            _ => None,
        })
        .collect();
    let mem_re = or_all(&mut nl, read_arms.iter().map(|&(s, _)| s).collect());
    let mem_we = or_all(&mut nl, write_arms.iter().map(|&(s, _, _)| s).collect());
    let mut addr_arms: Vec<(NetId, Bus)> = read_arms;
    addr_arms.extend(write_arms.iter().map(|(s, a, _)| (*s, a.clone())));
    let mem_addr = onehot_merge(&mut nl, w, &addr_arms);
    let wdata_arms: Vec<(NetId, Bus)> = write_arms
        .iter()
        .map(|(s, _, d)| (*s, d.clone()))
        .collect();
    let mem_wdata = onehot_merge(&mut nl, w, &wdata_arms);
    nl.mark_output("done", done);
    nl.mark_output("mem_re", mem_re);
    nl.mark_output("mem_we", mem_we);

    let gate_count = nl.gate_count();
    Ok(SynthesizedTransition {
        body: t.body.clone(),
        n_vars,
        width: w,
        plan: Arc::new(SimPlan::new(Arc::new(nl))?),
        ports: Ports {
            start,
            load,
            var_in,
            var_q,
            ev_in,
            mem_data_in,
            done,
            emit_pulse,
            emit_value,
            mem_re,
            mem_we,
            mem_addr,
            mem_wdata,
        },
        gate_count,
        powered: Mutex::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::{BlockId, Cfg, CfgBuilder, NullEnv};

    fn power() -> PowerConfig {
        PowerConfig::date2000_defaults()
    }

    fn synth_single(body: Cfg, n_vars: usize) -> HwCfsm {
        synth_with(body, n_vars, &power())
    }

    fn synth_with(body: Cfg, n_vars: usize, power: &PowerConfig) -> HwCfsm {
        let mut b = Cfsm::builder("t");
        let s = b.state("s");
        for v in 0..n_vars {
            b.var(format!("v{v}"), 0);
        }
        b.transition(s, vec![EventId(0)], None, body, s);
        let m = b.finish().expect("valid machine");
        HwCfsm::synthesize(&m, &SynthConfig::with_width(16), power).expect("synthesizable")
    }

    /// Reads, writes, and emits memory, so every observable of a firing
    /// depends on the simulator state it starts from. `k` makes the body
    /// (and so its synthesized transition and firing memo) distinct.
    fn stateful_body(k: i64) -> Cfg {
        Cfg::straight_line(vec![
            Stmt::MemRead {
                var: VarId(1),
                addr: Expr::Var(VarId(0)),
            },
            Stmt::Assign {
                var: VarId(0),
                expr: Expr::bin(BinOp::Xor, Expr::Var(VarId(0)), Expr::Var(VarId(1))),
            },
            Stmt::Emit {
                event: EventId(1),
                value: Some(Expr::add(Expr::Var(VarId(0)), Expr::Const(k))),
            },
            Stmt::MemWrite {
                addr: Expr::Const(4),
                value: Expr::Var(VarId(0)),
            },
        ])
    }

    /// One firing of a `stateful_body` transition with the energy as bits.
    fn fire_bits(t: &mut HwTransition, v0: i64, read: i64) -> (u64, HwRun) {
        let run = t.run(&[v0, 0], &|_| 0, &[read]);
        (run.energy_j.to_bits(), run)
    }

    /// `(hits, misses, bytes)` of one instance's firing memo.
    fn memo_of(t: &HwTransition) -> (u64, u64, usize) {
        let m = lock_memo(&t.powered.memo);
        (m.hits(), m.misses(), m.bytes())
    }

    #[test]
    fn straight_line_assign_matches_interpreter() {
        let body = Cfg::straight_line(vec![
            Stmt::Assign {
                var: VarId(0),
                expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(5)),
            },
            Stmt::Assign {
                var: VarId(1),
                expr: Expr::bin(BinOp::Mul, Expr::Var(VarId(0)), Expr::Const(3)),
            },
        ]);
        let mut vars = [10i64, 0];
        body.execute(&mut vars, &mut NullEnv);
        let mut hw = synth_single(body, 2);
        let run = hw.transition_mut(TransitionId(0)).run(&[10, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out, vars.to_vec());
        assert!(run.energy_j > 0.0);
        assert_eq!(run.cycles, 3); // load + start + 1 segment
    }

    #[test]
    fn chained_assigns_within_one_block() {
        // v1 = v0 + 1; v2 = v1 * 2 — same cycle, chained combinationally.
        let body = Cfg::straight_line(vec![
            Stmt::Assign {
                var: VarId(1),
                expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(1)),
            },
            Stmt::Assign {
                var: VarId(2),
                expr: Expr::bin(BinOp::Mul, Expr::Var(VarId(1)), Expr::Const(2)),
            },
        ]);
        let mut hw = synth_single(body, 3);
        let run = hw.transition_mut(TransitionId(0)).run(&[7, 0, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out, vec![7, 8, 16]);
    }

    #[test]
    fn branch_follows_condition() {
        let mut b = CfgBuilder::new();
        b.block(
            vec![],
            Terminator::Branch {
                cond: Expr::gt(Expr::Var(VarId(0)), Expr::Const(10)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        );
        b.block(
            vec![Stmt::Assign {
                var: VarId(1),
                expr: Expr::Const(111),
            }],
            Terminator::Return,
        );
        b.block(
            vec![Stmt::Assign {
                var: VarId(1),
                expr: Expr::Const(222),
            }],
            Terminator::Return,
        );
        let body = b.finish().expect("valid");
        let mut hw = synth_single(body, 2);
        let run = hw.transition_mut(TransitionId(0)).run(&[20, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out[1], 111);
        let run = hw.transition_mut(TransitionId(0)).run(&[3, 0], &|_| 0, &[]);
        assert_eq!(run.vars_out[1], 222);
    }

    #[test]
    fn loop_cycles_scale_with_iterations() {
        // while v0 > 0 { v1 += v0; v0 -= 1 }
        let mut b = CfgBuilder::new();
        b.block(
            vec![],
            Terminator::Branch {
                cond: Expr::gt(Expr::Var(VarId(0)), Expr::Const(0)),
                then_block: BlockId(1),
                else_block: BlockId(2),
            },
        );
        b.block(
            vec![
                Stmt::Assign {
                    var: VarId(1),
                    expr: Expr::add(Expr::Var(VarId(1)), Expr::Var(VarId(0))),
                },
                Stmt::Assign {
                    var: VarId(0),
                    expr: Expr::sub(Expr::Var(VarId(0)), Expr::Const(1)),
                },
            ],
            Terminator::Goto(BlockId(0)),
        );
        b.block(vec![], Terminator::Return);
        let body = b.finish().expect("valid");
        let mut hw = synth_single(body.clone(), 2);
        let r3 = hw.transition_mut(TransitionId(0)).run(&[3, 0], &|_| 0, &[]);
        assert_eq!(r3.vars_out, vec![0, 6]);
        let r6 = hw.transition_mut(TransitionId(0)).run(&[6, 0], &|_| 0, &[]);
        assert_eq!(r6.vars_out, vec![0, 21]);
        // 2 overhead + (1 head + 1 body) per iteration + final head + exit.
        assert_eq!(r3.cycles, 2 + 2 * 3 + 2);
        assert_eq!(r6.cycles, 2 + 2 * 6 + 2);
        assert!(r6.energy_j > r3.energy_j);
    }

    #[test]
    fn emit_pulses_and_values() {
        let body = Cfg::straight_line(vec![
            Stmt::Emit {
                event: EventId(1),
                value: Some(Expr::add(Expr::Var(VarId(0)), Expr::Const(2))),
            },
            Stmt::Emit {
                event: EventId(2),
                value: None,
            },
        ]);
        let mut hw = synth_single(body, 1);
        let run = hw.transition_mut(TransitionId(0)).run(&[40], &|_| 0, &[]);
        assert_eq!(
            run.emitted,
            vec![(EventId(1), Some(42)), (EventId(2), None)]
        );
    }

    #[test]
    fn event_value_inputs_reach_datapath() {
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::sub(Expr::EventValue(EventId(3)), Expr::Const(1)),
        }]);
        let mut hw = synth_single(body, 1);
        let run = hw
            .transition_mut(TransitionId(0))
            .run(&[0], &|e| if e == EventId(3) { 100 } else { 0 }, &[]);
        assert_eq!(run.vars_out, vec![99]);
    }

    #[test]
    fn memory_read_write_handshake() {
        // v0 = mem[8]; mem[12] = v0 + 1
        let body = Cfg::straight_line(vec![
            Stmt::MemRead {
                var: VarId(0),
                addr: Expr::Const(8),
            },
            Stmt::MemWrite {
                addr: Expr::Const(12),
                value: Expr::add(Expr::Var(VarId(0)), Expr::Const(1)),
            },
        ]);
        let mut hw = synth_single(body, 1);
        let run = hw.transition_mut(TransitionId(0)).run(&[0], &|_| 0, &[55]);
        assert_eq!(run.vars_out, vec![55]);
        assert_eq!(run.mem_ops, vec![(8, false, 0), (12, true, 56)]);
    }

    #[test]
    fn division_is_unsupported() {
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::bin(BinOp::Div, Expr::Var(VarId(0)), Expr::Const(2)),
        }]);
        let mut b = Cfsm::builder("t");
        let s = b.state("s");
        b.var("v0", 0);
        b.transition(s, vec![EventId(0)], None, body, s);
        let m = b.finish().expect("valid machine");
        let err = HwCfsm::synthesize(&m, &SynthConfig::new(), &power());
        assert!(matches!(err, Err(SynthError::UnsupportedOp(_))));
    }

    #[test]
    fn constant_shifts_supported() {
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::bin(BinOp::Shl, Expr::Var(VarId(0)), Expr::Const(3)),
        }]);
        let mut hw = synth_single(body, 1);
        let run = hw.transition_mut(TransitionId(0)).run(&[5], &|_| 0, &[]);
        assert_eq!(run.vars_out, vec![40]);
    }

    #[test]
    fn energy_is_data_dependent() {
        // Same path, different data → different switched capacitance.
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(1),
            expr: Expr::bin(BinOp::Xor, Expr::Var(VarId(0)), Expr::Var(VarId(1))),
        }]);
        let mut hw = synth_single(body, 2);
        let t = hw.transition_mut(TransitionId(0));
        let quiet = t.run(&[0, 0], &|_| 0, &[]);
        let quiet2 = t.run(&[0, 0], &|_| 0, &[]);
        let busy = t.run(&[0xFFFF_i64 & 0x7FFF, 0x2AAA], &|_| 0, &[]);
        assert!(busy.energy_j > quiet2.energy_j);
        // Identical consecutive runs settle to identical energies.
        assert!((quiet2.energy_j - quiet.energy_j).abs() <= quiet.energy_j);
    }

    #[test]
    fn unreachable_segments_are_tolerated() {
        // A block that is never jumped to still synthesizes (tie low).
        let mut b = CfgBuilder::new();
        b.block(vec![], Terminator::Return);
        b.block(
            vec![Stmt::Assign {
                var: VarId(0),
                expr: Expr::Const(9),
            }],
            Terminator::Return,
        );
        let body = b.finish().expect("valid");
        let mut hw = synth_single(body, 1);
        let run = hw.transition_mut(TransitionId(0)).run(&[1], &|_| 0, &[]);
        assert_eq!(run.vars_out, vec![1]); // dead block never executed
    }

    #[test]
    fn resynthesis_shares_one_netlist() {
        let _memo = memo_lock();
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(7)),
        }]);
        let a = synth_single(body.clone(), 1);
        let b = synth_single(body, 1);
        let ta = a.transition(TransitionId(0));
        let tb = b.transition(TransitionId(0));
        assert!(Arc::ptr_eq(ta.netlist(), tb.netlist()));
        // One simulation plan too: a memo hit rebuilds nothing derived
        // from the netlist, and each instance's simulator runs on it.
        assert!(Arc::ptr_eq(&ta.shared.plan, &tb.shared.plan));
        assert!(Arc::ptr_eq(ta.sim.plan(), tb.sim.plan()));
        assert!(Arc::ptr_eq(ta.sim.plan(), &ta.shared.plan));
        assert_eq!(ta.gate_count(), tb.gate_count());
    }

    #[test]
    fn memoized_instances_have_independent_state() {
        let _memo = memo_lock();
        let body = stateful_body(3);
        let fire = |hw: &mut HwCfsm, v0: i64, read: i64| {
            let run = hw
                .transition_mut(TransitionId(0))
                .run(&[v0, 0], &|_| 0, &[read]);
            (
                run.energy_j.to_bits(),
                run.cycles,
                run.vars_out,
                run.emitted,
                run.mem_ops,
                hw.gate_stats(),
            )
        };
        let mut a = synth_single(body.clone(), 2);
        let mut b = synth_single(body.clone(), 2);
        // Drive only `a`; `b`'s simulator state must be untouched.
        let first_a = fire(&mut a, 0x7FFF, 0x1234);
        let first_b = fire(&mut b, 0x7FFF, 0x1234);
        assert_eq!(first_a, first_b);
        assert!(first_a.5 .1 > 0, "the firing toggled nets");
        // Several more firings move `a`'s datapath away from reset...
        for k in 1..6 {
            fire(&mut a, 0x0F0F * k, 0x5A5A ^ k);
        }
        // ...yet a third instance built now, on the same shared plan,
        // starts from the pristine reset state: its first firing is bit
        // for bit the first instance's first firing.
        let mut c = synth_single(body, 2);
        assert!(Arc::ptr_eq(
            &a.transition(TransitionId(0)).shared.plan,
            &c.transition(TransitionId(0)).shared.plan
        ));
        assert_eq!(fire(&mut c, 0x7FFF, 0x1234), first_a);
    }

    #[test]
    fn clearing_the_memo_drops_plans_with_netlists() {
        let _memo = memo_lock();
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(4321)),
        }]);
        let first = synth_single(body.clone(), 1);
        let t0 = first.transition(TransitionId(0));
        let old_plan = Arc::downgrade(&t0.shared.plan);
        let old_netlist = Arc::downgrade(t0.netlist());
        clear_synth_cache();
        // `first` still holds its plan, so a fresh allocation is the only
        // way the next synthesis can differ by pointer.
        let second = synth_single(body, 1);
        let t1 = second.transition(TransitionId(0));
        assert!(!Arc::ptr_eq(&t0.shared.plan, &t1.shared.plan));
        assert!(!Arc::ptr_eq(t0.netlist(), t1.netlist()));
        // With its last instance gone, nothing — the memo included —
        // keeps the old plan or netlist alive.
        drop(first);
        assert!(old_plan.upgrade().is_none());
        assert!(old_netlist.upgrade().is_none());
    }

    #[test]
    fn different_specs_get_different_netlists() {
        let body = |k| {
            Cfg::straight_line(vec![Stmt::Assign {
                var: VarId(0),
                expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(k)),
            }])
        };
        let synth = |body: Cfg, n_vars: usize, width: usize| {
            let mut b = Cfsm::builder("t");
            let s = b.state("s");
            for v in 0..n_vars {
                b.var(format!("v{v}"), 0);
            }
            b.transition(s, vec![EventId(0)], None, body, s);
            let m = b.finish().expect("valid machine");
            HwCfsm::synthesize(&m, &SynthConfig::with_width(width), &power())
                .expect("synthesizable")
        };
        // The memo key is the body, the variable count and the width:
        // differing in any one part never shares a netlist.
        let base = synth(body(1), 1, 16);
        for other in [
            synth(body(2), 1, 16),
            synth(body(1), 2, 16),
            synth(body(1), 1, 15),
        ] {
            assert!(!Arc::ptr_eq(
                base.transition(TransitionId(0)).netlist(),
                other.transition(TransitionId(0)).netlist()
            ));
        }
        assert!(Arc::ptr_eq(
            base.transition(TransitionId(0)).netlist(),
            synth(body(1), 1, 16).transition(TransitionId(0)).netlist()
        ));
    }

    #[test]
    fn out_of_range_widths_are_typed_errors() {
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(1)),
        }]);
        let mut b = Cfsm::builder("t");
        let s = b.state("s");
        b.var("v0", 0);
        b.transition(s, vec![EventId(0)], None, body, s);
        let m = b.finish().expect("valid machine");
        // `width` is public, so a struct literal bypasses `with_width`.
        for width in [0, 64, 65] {
            let err = HwCfsm::synthesize(&m, &SynthConfig { width }, &power());
            assert_eq!(err.err(), Some(SynthError::InvalidWidth(width)));
        }
        for width in [1, 16, 63] {
            let hw = HwCfsm::synthesize(&m, &SynthConfig { width }, &power());
            assert!(hw.is_ok(), "width {width} is in range");
        }
    }

    #[test]
    fn energy_tables_are_shared_per_power_config() {
        let _memo = memo_lock();
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(2468)),
        }]);
        let t0 = TransitionId(0);
        let low = PowerConfig {
            vdd: 1.8,
            ..power()
        };
        let a = synth_single(body.clone(), 1);
        let b = synth_single(body.clone(), 1);
        let c = synth_with(body.clone(), 1, &low);
        let table = |hw: &HwCfsm| Arc::clone(hw.transition(t0).sim.energies());
        // One table per configuration, shared by its memoized instances.
        assert!(Arc::ptr_eq(&table(&a), &table(&b)));
        assert!(!Arc::ptr_eq(&table(&a), &table(&c)));
        assert_ne!(table(&a).power_key, table(&c).power_key);
        // Each matches a standalone simulator's own table bit for bit.
        for (hw, config) in [(&a, power()), (&c, low)] {
            let netlist = Arc::clone(hw.transition(t0).netlist());
            let fresh =
                Simulator::with_kernel(netlist, config, SimKernel::Oblivious).expect("valid");
            let (want, got) = (fresh.energies(), table(hw));
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.switch_j), bits(&want.switch_j));
            assert_eq!(got.clock_j.to_bits(), want.clock_j.to_bits());
            assert_eq!(got.power_key, want.power_key);
        }
        // Clearing the memo drops the tables with their transition, once
        // its last instance is gone.
        let old = Arc::downgrade(&table(&a));
        clear_synth_cache();
        let d = synth_single(body, 1);
        assert!(!Arc::ptr_eq(&table(&a), &table(&d)));
        drop((a, b, c));
        assert!(old.upgrade().is_none());
    }

    #[test]
    fn idle_fast_forward_equals_stepping() {
        let _memo = memo_lock();
        let body = stateful_body(77);
        let t0 = TransitionId(0);
        // What a memo hit restores: net values, cycles and gate events.
        let state = |hw: &HwCfsm| {
            let sim = &hw.transition(t0).sim;
            let values: Vec<bool> = (0..sim.netlist().gate_count() as u32)
                .map(|i| sim.value(NetId(i)))
                .collect();
            (values, sim.cycle(), sim.gate_events())
        };
        // And the work counters, which only simulating moves.
        let counters = |hw: &HwCfsm| {
            let sim = &hw.transition(t0).sim;
            let toggles: Vec<u64> = (0..sim.netlist().gate_count() as u32)
                .map(|i| sim.toggle_count(NetId(i)))
                .collect();
            (toggles, sim.gate_evals())
        };
        for memoized in [false, true] {
            for n in [0u64, 1, 2, 7, 300] {
                let mut fast = synth_single(body.clone(), 2);
                let mut stepped = synth_single(body.clone(), 2);
                for hw in [&mut fast, &mut stepped] {
                    fire_bits(hw.transition_mut(t0), 0x1234, 0x55);
                }
                let e_fast = fast.transition_mut(t0).idle_step(n);
                // The reference: a clone of the simulator, stepped.
                let mut sim = stepped.transition(t0).sim.clone();
                let e_step: f64 = (0..n).map(|_| sim.step()).sum();
                sim.clear_history();
                stepped.transition_mut(t0).sim = sim;
                assert_eq!(e_fast.to_bits(), e_step.to_bits(), "n = {n}");
                assert_eq!(state(&fast), state(&stepped), "n = {n}");
                assert_eq!(counters(&fast), counters(&stepped), "n = {n}");
                // The next firing is unchanged too: simulated, or in a
                // scope answered from the memo for the second instance.
                let _scope = memoized.then(FiringMemoScope::enter);
                let next = |hw: &mut HwCfsm| fire_bits(hw.transition_mut(t0), 0x0F0F, 0xAA);
                assert_eq!(next(&mut fast), next(&mut stepped), "n = {n}");
                assert_eq!(state(&fast), state(&stepped), "n = {n}");
                let hits = (fast.memo_hits(), stepped.memo_hits());
                assert_eq!(hits, (0, u64::from(memoized)), "n = {n}");
            }
        }
    }

    #[test]
    fn cache_stats_observe_hits() {
        let _memo = memo_lock();
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(12345)),
        }]);
        let _first = synth_single(body.clone(), 1);
        let (hits_before, _) = synth_cache_stats();
        let _second = synth_single(body, 1);
        let (hits_after, _) = synth_cache_stats();
        assert!(hits_after > hits_before);
    }

    #[test]
    fn memoized_firings_match_simulated_ones_bit_for_bit() {
        let _memo = memo_lock();
        let body = stateful_body(11);
        // Few distinct values, so the seeded sequence revisits states;
        // idle steps in between move the state off the firing path.
        let mut rng = detrand::Rng::new(50);
        let steps: Vec<(i64, i64, u64)> = (0..50)
            .map(|_| {
                (
                    *rng.choose(&[0, 0x7FFF, 0x1234]),
                    *rng.choose(&[0x55, 0xAA]),
                    *rng.choose(&[0, 0, 1, 7]),
                )
            })
            .collect();
        let replay = |hw: &mut HwCfsm| {
            let mut out = Vec::new();
            for &(v0, read, idle) in &steps {
                let (bits, run) = fire_bits(hw.transition_mut(TransitionId(0)), v0, read);
                let idle_bits = hw.transition_mut(TransitionId(0)).idle_step(idle).to_bits();
                out.push((bits, run, idle_bits, hw.gate_stats().1));
            }
            out
        };
        // Outside any scope every firing is simulated.
        let mut plain = synth_single(body.clone(), 2);
        let want = replay(&mut plain);
        assert_eq!(plain.memo_hits(), 0);

        let _scope = FiringMemoScope::enter();
        let mut first = synth_single(body.clone(), 2);
        assert_eq!(replay(&mut first), want);
        assert!(first.memo_hits() > 0, "the sequence revisits states");
        let mut second = synth_single(body, 2);
        assert_eq!(replay(&mut second), want);
        assert_eq!(
            second.memo_hits(),
            50,
            "the first pass admitted every firing"
        );
        // Evaluations count work done: only the idle steps evaluated.
        assert!(second.gate_stats().0 < plain.gate_stats().0);
    }

    #[test]
    fn firings_differing_in_any_key_part_miss() {
        let _memo = memo_lock();
        let body = stateful_body(22);
        let _scope = FiringMemoScope::enter();
        let fresh = |power: &PowerConfig| synth_with(body.clone(), 2, power);
        let t0 = TransitionId(0);
        let mut base = fresh(&power());
        let (base_bits, _) = fire_bits(base.transition_mut(t0), 0x100, 0x5A);
        let (hits, misses, _) = memo_of(base.transition(t0));
        // The identical fresh firing hits...
        let mut same = fresh(&power());
        assert_eq!(fire_bits(same.transition_mut(t0), 0x100, 0x5A).0, base_bits);
        assert_eq!(same.memo_hits(), 1);
        // ...and each single difference misses: one forced input bit,
        // one read value, the power parameters, and a settled instance
        // whose flops and inputs equal the fresh ones (idle cycles from
        // reset move neither, only the constant-init quirk settles).
        let mut bit = fresh(&power());
        fire_bits(bit.transition_mut(t0), 0x101, 0x5A);
        let mut read = fresh(&power());
        fire_bits(read.transition_mut(t0), 0x100, 0x5B);
        let mut volts = fresh(&PowerConfig {
            vdd: 1.8,
            ..power()
        });
        fire_bits(volts.transition_mut(t0), 0x100, 0x5A);
        let mut settled = fresh(&power());
        settled.transition_mut(t0).idle_step(2);
        let (settled_bits, _) = fire_bits(settled.transition_mut(t0), 0x100, 0x5A);
        assert_ne!(
            settled_bits, base_bits,
            "the quirk's settle is part of the fresh firing"
        );
        for hw in [&bit, &read, &volts, &settled] {
            assert_eq!(hw.memo_hits(), 0);
        }
        // The power parameters select a memo of their own.
        let powered = |hw: &HwCfsm| Arc::clone(&hw.transition(t0).powered);
        assert!(!Arc::ptr_eq(&powered(&volts), &powered(&base)));
        assert!(Arc::ptr_eq(&powered(&same), &powered(&base)));
        assert_eq!(memo_of(volts.transition(t0)).0, 0);
        let (hits_now, misses_now, _) = memo_of(base.transition(t0));
        assert_eq!((hits_now, misses_now), (hits + 1, misses + 3));
    }

    #[test]
    fn admission_stops_at_the_byte_budget() {
        use crate::memo::ALLOWANCE_BYTES;
        let _memo = memo_lock();
        let body = stateful_body(33);
        let t0 = TransitionId(0);
        let mut plain = synth_single(body.clone(), 2);
        let want: Vec<u64> = (0..600)
            .map(|k| fire_bits(plain.transition_mut(t0), k, k ^ 0x3C).0)
            .collect();
        let _scope = FiringMemoScope::enter();
        let replay = |hw: &mut HwCfsm| {
            for (k, &bits) in (0..600).zip(&want) {
                assert_eq!(fire_bits(hw.transition_mut(t0), k, k ^ 0x3C).0, bits);
            }
        };
        let stats = |hw: &HwCfsm| {
            let m = lock_memo(&hw.transition(t0).powered.memo);
            (m.declined(), m.bytes())
        };
        // Distinct inputs every time: every firing misses, and first
        // sightings stop being admitted at the allowance.
        let mut first = synth_single(body.clone(), 2);
        for (k, &bits) in (0..600).zip(&want) {
            assert_eq!(fire_bits(first.transition_mut(t0), k, k ^ 0x3C).0, bits);
            assert!(stats(&first).1 <= ALLOWANCE_BYTES);
        }
        assert_eq!(first.memo_hits(), 0);
        let (refused, held) = stats(&first);
        assert!(refused > 0, "the allowance filled ({held} bytes held)");
        // A fresh instance replays the same states: the admitted firings
        // hit, and the refused ones, seen again, are admitted...
        let mut second = synth_single(body.clone(), 2);
        replay(&mut second);
        assert_eq!(second.memo_hits(), 600 - refused);
        assert_eq!(stats(&second).0, refused, "no second sighting refused");
        assert!(stats(&second).1 > ALLOWANCE_BYTES);
        // ...so a third replay is answered from the memo throughout.
        let mut third = synth_single(body, 2);
        replay(&mut third);
        assert_eq!(third.memo_hits(), 600);
        assert!(firing_memo_stats().bytes <= crate::FIRING_MEMO_CAP_BYTES);
    }

    #[test]
    fn the_last_scope_empties_the_memo_and_clearing_frees_it() {
        let _memo = memo_lock();
        let body = stateful_body(44);
        let t0 = TransitionId(0);
        let outer = FiringMemoScope::enter();
        let inner = FiringMemoScope::enter();
        let mut hw = synth_single(body, 2);
        fire_bits(hw.transition_mut(t0), 1, 2);
        fire_bits(hw.transition_mut(t0), 3, 4);
        let (_, misses, held) = memo_of(hw.transition(t0));
        assert!(held > 0 && misses >= 2);
        drop(inner);
        assert_eq!(memo_of(hw.transition(t0)).2, held, "a scope is still alive");
        drop(outer);
        // Emptied: no entries and none of the cap held, counters kept.
        assert_eq!(memo_of(hw.transition(t0)), (0, misses, 0));
        assert_eq!(BUDGET.held(), 0);
        assert_eq!(firing_memo_stats().bytes, 0);
        assert!(firing_memo_stats().misses >= misses);
        let memo = Arc::downgrade(&hw.transition(t0).shared);
        clear_synth_cache();
        assert_eq!(firing_memo_stats(), FiringMemoStats::default());
        drop(hw);
        assert!(
            memo.upgrade().is_none(),
            "the memo went with its transition"
        );
    }

    #[test]
    fn threads_without_a_scope_keep_simulating() {
        let _memo = memo_lock();
        let body = stateful_body(66);
        let t0 = TransitionId(0);
        let _scope = FiringMemoScope::enter();
        let mut scoped = synth_single(body.clone(), 2);
        let (want, _) = fire_bits(scoped.transition_mut(t0), 0x66, 0x11);
        // The firing is admitted, yet a thread holding no scope of its
        // own simulates it and leaves the memo untouched.
        let before = memo_of(scoped.transition(t0));
        let (got, hits) = std::thread::spawn(move || {
            let mut other = synth_single(body, 2);
            let (bits, _) = fire_bits(other.transition_mut(t0), 0x66, 0x11);
            (bits, other.memo_hits())
        })
        .join()
        .expect("firing thread");
        assert_eq!((got, hits), (want, 0));
        assert_eq!(memo_of(scoped.transition(t0)), before);
    }

    #[test]
    fn forced_kernels_never_consult_the_memo() {
        let _memo = memo_lock();
        let body = stateful_body(55);
        let t0 = TransitionId(0);
        let _scope = FiringMemoScope::enter();
        let mut event = synth_single(body, 2);
        let (want, _) = fire_bits(event.transition_mut(t0), 0x77, 0x33);
        let shared = Arc::clone(&event.transition(t0).shared);
        // The event-driven firing was admitted, so a consulting instance
        // would hit on this fresh firing.
        let mut t = HwTransition::instantiate(Arc::clone(&shared), &power(), SimKernel::Oblivious);
        let before = memo_of(&t);
        assert_eq!(fire_bits(&mut t, 0x77, 0x33).0, want);
        assert_eq!(
            memo_of(&t),
            before,
            "the oblivious kernel consulted the memo"
        );
        assert_eq!(t.memo_hits(), 0);
        assert!(t.gate_stats().0 > 0, "the oblivious kernel simulated");
    }
}
