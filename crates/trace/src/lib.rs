//! `soctrace` — the structured trace-sink observability layer of the
//! co-estimation stack.
//!
//! Every layer of the simulator (co-simulation master, acceleration
//! pipeline, bus, cache) can emit structured [`TraceRecord`]s into a
//! user-supplied [`TraceSink`]. The hook is **zero-cost when disabled**:
//! emission goes through a [`Tracer`] handle whose
//! [`emit`](Tracer::emit) takes a closure, so a disabled tracer costs
//! one `Option` check and never constructs the record.
//! Attaching a sink is strictly observational — a traced run is
//! bit-for-bit identical to an untraced one (the golden-report suite
//! enforces this in CI with `TRACE=ndjson`).
//!
//! Three sinks ship with the crate:
//!
//! * [`MetricsSink`] — counting/aggregating: per-layer answer counts,
//!   cache hit/miss, bus traffic, energy totals.
//! * [`NdjsonSink`] — one JSON object per record, newline-delimited, to
//!   any [`std::io::Write`] (files, pipes, in-memory buffers).
//! * [`MemorySink`] — keeps the records in a `Vec` for tests.
//!
//! [`SharedSink`] wraps any sink in `Rc<RefCell<…>>` so the caller can
//! keep a handle while the simulator owns the attached clone.
//!
//! The [`timeline`] module adds the fourth sink:
//! [`PowerTimelineSink`] bins every ledger charge into fixed-width
//! cycle windows — per-component / per-provenance power waveforms,
//! per-window activity counters, and power-state timelines — with
//! exporters to VCD ([`vcd::write_vcd`], GTKWave-viewable) and Chrome
//! Trace Event / Perfetto JSON ([`perfetto::write_perfetto`]). The
//! [`json`] module carries the dependency-free parser used to
//! round-trip validate emitted artifacts.
//!
//! The crate reads no clock: wall-time measurement of the stack lives
//! in the `perfbench` harness, which times the program from outside
//! and attributes time to layers by replaying a traced run.
//!
//! # Examples
//!
//! ```
//! use soctrace::{MetricsSink, SharedSink, TraceRecord, TraceSink, Tracer};
//!
//! let shared = SharedSink::new(MetricsSink::new());
//! let mut tracer = Tracer::new(Box::new(shared.clone()));
//! tracer.emit(|| TraceRecord::FiringStart { at: 10, process: 0, transition: 2 });
//! assert_eq!(shared.with(|m| m.firings), 1);
//!
//! let mut off = Tracer::disabled();
//! off.emit(|| unreachable!("never constructed when disabled"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod timeline;
pub mod vcd;

pub use perfetto::write_perfetto;
pub use timeline::{
    AnomalyMark, ComponentWaveform, PeakWindow, PowerTimelineSink, StateChange, StatePower,
    TimelineConfig, TimelineReport, WindowCounters,
};
pub use vcd::{check_vcd, write_vcd, VcdSummary};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// One structured observation from the simulation stack.
///
/// Identifiers are plain integers (process/component/master indices as
/// assigned by the emitting layer) so the crate stays dependency-free;
/// the emitting layer documents the mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A CFSM transition firing began.
    FiringStart {
        /// Simulation time, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// Transition index within the process.
        transition: u32,
    },
    /// A firing's cost was settled (by whichever layer answered).
    FiringEnd {
        /// Simulation time the firing started, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// Execution cycles charged.
        cycles: u64,
        /// Energy charged, joules.
        energy_j: f64,
        /// Which estimator answered: `"detailed"`, `"cache"`,
        /// `"macromodel"` or `"sampling"`.
        source: &'static str,
    },
    /// An acceleration layer answered a firing instead of delegating.
    LayerAnswered {
        /// Simulation time, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// Layer name (`"cache"`, `"macromodel"`, `"sampling"`).
        layer: &'static str,
        /// Cycles of the answer.
        cycles: u64,
        /// Energy of the answer, joules.
        energy_j: f64,
    },
    /// The energy cache was consulted.
    EnergyCacheLookup {
        /// Simulation time, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// Computation-path id within the process.
        path: u64,
        /// Whether the lookup was served.
        hit: bool,
    },
    /// An energy quantum was recorded into the accounting ledger.
    EnergySample {
        /// Component index in the ledger.
        component: u32,
        /// First cycle of the charged window.
        start: u64,
        /// One past the last cycle of the charged window.
        end: u64,
        /// Energy, joules.
        energy_j: f64,
        /// Provenance tag: which estimation technique produced this
        /// quantum (`"measured_iss"`, `"gate_level"`, `"cache_reuse"`,
        /// `"macro_model"`, `"sampled_scaled"`, `"bus_model"`,
        /// `"cache_model"` — see the emitting layer's `Provenance`).
        provenance: &'static str,
    },
    /// The bus arbiter granted one DMA block.
    BusGrant {
        /// Time the grant was issued, cycles.
        at: u64,
        /// Bus-master index.
        master: u32,
        /// First cycle of the block (arbitration included).
        start: u64,
        /// One past the last cycle.
        end: u64,
        /// Words transferred in this block.
        words: u64,
        /// Energy of the block, joules.
        energy_j: f64,
        /// Whether this was the owning request's final block.
        request_done: bool,
    },
    /// One behavioral fetch batch went through the instruction cache.
    IcacheBatch {
        /// Simulation time, cycles.
        at: u64,
        /// Process index whose firing drove the fetches.
        process: u32,
        /// Fetches in the batch.
        fetches: u64,
        /// Hits among them.
        hits: u64,
        /// Misses among them.
        misses: u64,
        /// Stall cycles caused.
        stall_cycles: u64,
        /// Energy charged, joules.
        energy_j: f64,
    },
    /// A scheduled fault was injected.
    FaultInjected {
        /// Simulation time, cycles.
        at: u64,
        /// Human-readable fault description.
        description: String,
    },
    /// A watchdog budget tripped; the run degrades.
    WatchdogTrip {
        /// Simulation time, cycles.
        at: u64,
        /// Trip reason.
        reason: String,
    },
    /// Gate-level simulation activity behind one detailed firing: how
    /// many combinational gates the power simulator evaluated, how many
    /// net-value events it observed, and how many firings the exact
    /// firing memo answered without simulating.
    ///
    /// `evals` counts kernel *work units* actually performed and so
    /// depends on the selected gate-simulation kernel (the oblivious
    /// one evaluates every gate every cycle) and on the memo (a hit
    /// evaluates nothing); `events` counts committed per-cycle
    /// gate output changes and is kernel- and memo-invariant — it is
    /// the number to compare across `GATESIM_KERNEL` selections.
    GateActivity {
        /// Simulation time, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// Combinational gate evaluations performed (kernel work
        /// units; kernel- and memo-dependent).
        evals: u64,
        /// Net value changes observed (kernel- and memo-invariant).
        events: u64,
        /// Firings answered by the firing memo.
        memo_hits: u64,
    },
    /// A component's power-management state changed (gate closed after
    /// the idle timeout, or the component woke to fire).
    PowerTransition {
        /// Transition time, cycles.
        at: u64,
        /// Process index.
        process: u32,
        /// State left (`"active"`, `"dvfs"`, `"clock_gated"`,
        /// `"power_gated"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl TraceRecord {
    /// The record's kind tag (the `"kind"` field of the NDJSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::FiringStart { .. } => "firing_start",
            TraceRecord::FiringEnd { .. } => "firing_end",
            TraceRecord::LayerAnswered { .. } => "layer_answered",
            TraceRecord::EnergyCacheLookup { .. } => "energy_cache_lookup",
            TraceRecord::EnergySample { .. } => "energy_sample",
            TraceRecord::BusGrant { .. } => "bus_grant",
            TraceRecord::IcacheBatch { .. } => "icache_batch",
            TraceRecord::FaultInjected { .. } => "fault_injected",
            TraceRecord::WatchdogTrip { .. } => "watchdog_trip",
            TraceRecord::GateActivity { .. } => "gate_activity",
            TraceRecord::PowerTransition { .. } => "power_transition",
        }
    }

    /// Renders the record as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let kind = self.kind();
        match self {
            TraceRecord::FiringStart { at, process, transition } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"transition\":{transition}}}"
            ),
            TraceRecord::FiringEnd { at, process, cycles, energy_j, source } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"cycles\":{cycles},\
                 \"energy_j\":{energy_j:e},\"source\":\"{source}\"}}"
            ),
            TraceRecord::LayerAnswered { at, process, layer, cycles, energy_j } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"layer\":\"{layer}\",\
                 \"cycles\":{cycles},\"energy_j\":{energy_j:e}}}"
            ),
            TraceRecord::EnergyCacheLookup { at, process, path, hit } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"path\":{path},\"hit\":{hit}}}"
            ),
            TraceRecord::EnergySample { component, start, end, energy_j, provenance } => format!(
                "{{\"kind\":\"{kind}\",\"component\":{component},\"start\":{start},\"end\":{end},\
                 \"energy_j\":{energy_j:e},\"provenance\":\"{provenance}\"}}"
            ),
            TraceRecord::BusGrant { at, master, start, end, words, energy_j, request_done } => {
                format!(
                    "{{\"kind\":\"{kind}\",\"at\":{at},\"master\":{master},\"start\":{start},\
                     \"end\":{end},\"words\":{words},\"energy_j\":{energy_j:e},\
                     \"request_done\":{request_done}}}"
                )
            }
            TraceRecord::IcacheBatch { at, process, fetches, hits, misses, stall_cycles, energy_j } => {
                format!(
                    "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"fetches\":{fetches},\
                     \"hits\":{hits},\"misses\":{misses},\"stall_cycles\":{stall_cycles},\
                     \"energy_j\":{energy_j:e}}}"
                )
            }
            TraceRecord::FaultInjected { at, description } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"description\":\"{}\"}}",
                json_escape(description)
            ),
            TraceRecord::WatchdogTrip { at, reason } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
            TraceRecord::GateActivity { at, process, evals, events, memo_hits } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"evals\":{evals},\
                 \"events\":{events},\"memo_hits\":{memo_hits}}}"
            ),
            TraceRecord::PowerTransition { at, process, from, to } => format!(
                "{{\"kind\":\"{kind}\",\"at\":{at},\"process\":{process},\"from\":\"{from}\",\
                 \"to\":\"{to}\"}}"
            ),
        }
    }
}

/// A consumer of [`TraceRecord`]s. Object-safe so the simulator can hold
/// `Box<dyn TraceSink>` without caring what is listening.
pub trait TraceSink {
    /// Consumes one record. Must not panic: tracing is observational and
    /// a sink failure must not poison the simulation.
    fn record(&mut self, rec: &TraceRecord);
}

/// The emission handle threaded through the simulation layers.
///
/// A disabled tracer (the default) costs one branch per emission site
/// and never constructs the record — the closure passed to
/// [`emit`](Tracer::emit) is only invoked when a sink is attached.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sink: every emission is a no-op.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer forwarding every record to `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Attaches (or replaces) the sink.
    pub fn attach(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the sink, disabling the tracer.
    pub fn detach(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one record. `build` runs only when a sink is attached.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> TraceRecord) {
        if let Some(sink) = &mut self.sink {
            sink.record(&build());
        }
    }
}

/// A counting/aggregating sink: per-layer answer counts, cache hit/miss
/// ratios, bus traffic and ledger energy — the cheap always-on metrics
/// companion to the full NDJSON stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSink {
    /// Total records consumed.
    pub records: u64,
    /// Firings started.
    pub firings: u64,
    /// Firings answered by the detailed estimators.
    pub detailed_calls: u64,
    /// Firings answered per acceleration layer, keyed by layer name.
    pub answered_by_layer: BTreeMap<&'static str, u64>,
    /// Energy-cache lookups that hit.
    pub cache_hits: u64,
    /// Energy-cache lookups that missed.
    pub cache_misses: u64,
    /// Ledger records observed.
    pub energy_samples: u64,
    /// Total energy observed through ledger records, joules.
    pub sampled_energy_j: f64,
    /// Ledger energy per provenance tag, joules.
    pub energy_by_provenance: BTreeMap<&'static str, f64>,
    /// Bus DMA blocks granted.
    pub bus_grants: u64,
    /// Bus words transferred under observed grants.
    pub bus_words: u64,
    /// Instruction-cache fetch batches observed.
    pub icache_batches: u64,
    /// Instruction fetches observed.
    pub icache_fetches: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Watchdog trips.
    pub watchdog_trips: u64,
    /// Combinational gate evaluations behind observed detailed
    /// firings. Kernel work units: the oblivious kernel evaluates
    /// every gate every cycle, so this aggregate depends on the
    /// selected gate-simulation kernel, and firings the firing memo
    /// answered add none.
    pub gate_evals: u64,
    /// Gate-level net value changes behind observed detailed firings.
    /// Kernel-invariant: identical under every `GATESIM_KERNEL`
    /// selection, so cross-kernel runs stay comparable on this column.
    /// Memo-invariant too.
    pub gate_events: u64,
    /// Detailed hardware firings the exact firing memo answered without
    /// simulating (they add to `gate_events`, not to `gate_evals`).
    pub gate_memo_hits: u64,
    /// Power-management state transitions observed.
    pub power_transitions: u64,
    /// Power-state residency settled by observed transitions: cycles
    /// per `(process, state)` pair, closed at each transition (the
    /// span from the last transition to the end of the run is *not*
    /// here — it needs the run horizon; see
    /// [`power_residency`](MetricsSink::power_residency)).
    pub state_cycles: BTreeMap<(u32, &'static str), u64>,
    /// Per-process open state span: `(since_cycle, state)` as of the
    /// last observed transition.
    pub open_states: BTreeMap<u32, (u64, &'static str)>,
}

impl MetricsSink {
    /// An empty metrics aggregator.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Firings answered by any acceleration layer.
    pub fn accelerated_calls(&self) -> u64 {
        self.answered_by_layer.values().sum()
    }

    /// Cycles process `process` spent in `state` over `[0, end_cycle)`,
    /// reconstructed from the observed [`TraceRecord::PowerTransition`]
    /// stream: closed spans plus the tail from the last transition to
    /// `end_cycle`. A process never mentioned by a transition is
    /// assumed `active` for the whole run — the master emits a
    /// synthetic cycle-0 transition for any component whose base state
    /// differs (e.g. a DVFS operating point), so the stream is
    /// self-describing.
    pub fn power_residency(&self, process: u32, state: &str, end_cycle: u64) -> u64 {
        let closed: u64 = self
            .state_cycles
            .iter()
            .filter(|((p, s), _)| *p == process && *s == state)
            .map(|(_, c)| *c)
            .sum();
        match self.open_states.get(&process) {
            Some((since, open)) if *open == state => {
                closed + end_cycle.saturating_sub(*since)
            }
            Some(_) => closed,
            None if state == "active" => end_cycle,
            None => 0,
        }
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        match rec {
            TraceRecord::FiringStart { .. } => self.firings += 1,
            TraceRecord::FiringEnd { source, .. } => {
                if *source == "detailed" {
                    self.detailed_calls += 1;
                }
            }
            TraceRecord::LayerAnswered { layer, .. } => {
                *self.answered_by_layer.entry(layer).or_insert(0) += 1;
            }
            TraceRecord::EnergyCacheLookup { hit, .. } => {
                if *hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            TraceRecord::EnergySample { energy_j, provenance, .. } => {
                self.energy_samples += 1;
                self.sampled_energy_j += energy_j;
                *self.energy_by_provenance.entry(provenance).or_insert(0.0) += energy_j;
            }
            TraceRecord::BusGrant { words, .. } => {
                self.bus_grants += 1;
                self.bus_words += words;
            }
            TraceRecord::IcacheBatch { fetches, .. } => {
                self.icache_batches += 1;
                self.icache_fetches += fetches;
            }
            TraceRecord::FaultInjected { .. } => self.faults_injected += 1,
            TraceRecord::WatchdogTrip { .. } => self.watchdog_trips += 1,
            TraceRecord::GateActivity {
                evals,
                events,
                memo_hits,
                ..
            } => {
                self.gate_evals += evals;
                self.gate_events += events;
                self.gate_memo_hits += memo_hits;
            }
            TraceRecord::PowerTransition { at, process, from, to } => {
                self.power_transitions += 1;
                // Close the open span (a process first seen here was in
                // `from` since cycle 0) and open one in the new state.
                let (since, state) =
                    self.open_states.get(process).copied().unwrap_or((0, from));
                *self.state_cycles.entry((*process, state)).or_insert(0) +=
                    at.saturating_sub(since);
                self.open_states.insert(*process, (*at, to));
            }
        }
    }
}

/// A sink writing one JSON object per record to any writer.
///
/// Write errors are swallowed after the first (tracing must never poison
/// the simulation); [`error`](NdjsonSink::error) exposes the first one.
#[derive(Debug)]
pub struct NdjsonSink<W: Write> {
    writer: W,
    written: u64,
    error: Option<std::io::ErrorKind>,
}

impl<W: Write> NdjsonSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        NdjsonSink {
            writer,
            written: 0,
            error: None,
        }
    }

    /// Records successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<std::io::ErrorKind> {
        self.error
    }

    /// Flushes the underlying writer in place. A flush failure is
    /// recorded like a write failure (first error wins, subsequent
    /// records are dropped) — never propagated as a panic.
    pub fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e.kind());
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> TraceSink for NdjsonSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.writer, "{}", rec.to_ndjson()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e.kind()),
        }
    }
}

/// A sink keeping every record in memory (tests and post-hoc analysis).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// The records, in emission order.
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The records of one kind, in order.
    pub fn of_kind(&self, kind: &str) -> Vec<&TraceRecord> {
        self.records.iter().filter(|r| r.kind() == kind).collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord) {
        self.records.push(rec.clone());
    }
}

/// A shareable sink: the caller keeps one handle, the simulator owns the
/// other. Single-threaded (`Rc`) by design — the co-simulation master is
/// single-threaded, and parallel sweeps attach one sink per worker.
pub struct SharedSink<T>(Rc<RefCell<T>>);

impl<T> Clone for SharedSink<T> {
    fn clone(&self) -> Self {
        SharedSink(Rc::clone(&self.0))
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSink<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedSink").field(&self.0).finish()
    }
}

impl<T> SharedSink<T> {
    /// Wraps `sink` for sharing.
    pub fn new(sink: T) -> Self {
        SharedSink(Rc::new(RefCell::new(sink)))
    }

    /// Runs `f` with a shared borrow of the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Extracts the inner sink if this is the last handle, otherwise a
    /// clone of it.
    pub fn into_inner(self) -> T
    where
        T: Clone,
    {
        match Rc::try_unwrap(self.0) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

impl<T: TraceSink> TraceSink for SharedSink<T> {
    fn record(&mut self, rec: &TraceRecord) {
        // A sink must not panic; skip the record if the caller holds a
        // borrow at emission time (not possible from the simulator side).
        if let Ok(mut inner) = self.0.try_borrow_mut() {
            inner.record(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filler record for the tests that only count records.
    fn filler(at: u64) -> TraceRecord {
        TraceRecord::FiringStart {
            at,
            process: 0,
            transition: 0,
        }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::FiringStart { at: 1, process: 0, transition: 0 },
            TraceRecord::LayerAnswered {
                at: 1,
                process: 0,
                layer: "cache",
                cycles: 10,
                energy_j: 1e-9,
            },
            TraceRecord::FiringEnd {
                at: 1,
                process: 0,
                cycles: 10,
                energy_j: 1e-9,
                source: "cache",
            },
            TraceRecord::FiringStart { at: 2, process: 1, transition: 3 },
            TraceRecord::FiringEnd {
                at: 2,
                process: 1,
                cycles: 20,
                energy_j: 2e-9,
                source: "detailed",
            },
            TraceRecord::EnergyCacheLookup { at: 2, process: 1, path: 7, hit: false },
            TraceRecord::EnergySample {
                component: 1,
                start: 2,
                end: 22,
                energy_j: 2e-9,
                provenance: "measured_iss",
            },
            TraceRecord::BusGrant {
                at: 5,
                master: 1,
                start: 5,
                end: 9,
                words: 4,
                energy_j: 3e-10,
                request_done: true,
            },
            TraceRecord::FaultInjected { at: 6, description: "freeze \"p\"".into() },
            TraceRecord::WatchdogTrip { at: 9, reason: "cycle budget".into() },
            TraceRecord::GateActivity {
                at: 2,
                process: 1,
                evals: 120,
                events: 45,
                memo_hits: 3,
            },
        ]
    }

    #[test]
    fn disabled_tracer_never_builds_records() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit(|| {
            built = true;
            filler(0)
        });
        assert!(!built);
        assert!(!t.enabled());
    }

    #[test]
    fn metrics_sink_aggregates() {
        let mut m = MetricsSink::new();
        for r in sample_records() {
            m.record(&r);
        }
        assert_eq!(m.firings, 2);
        assert_eq!(m.detailed_calls, 1);
        assert_eq!(m.accelerated_calls(), 1);
        assert_eq!(m.answered_by_layer.get("cache"), Some(&1));
        assert_eq!((m.cache_hits, m.cache_misses), (0, 1));
        assert_eq!(m.bus_grants, 1);
        assert_eq!(m.bus_words, 4);
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.watchdog_trips, 1);
        assert_eq!(m.gate_evals, 120);
        assert_eq!(m.gate_events, 45);
        assert_eq!(m.gate_memo_hits, 3);
        assert!((m.sampled_energy_j - 2e-9).abs() < 1e-20);
    }

    #[test]
    fn ndjson_lines_are_valid_shape() {
        let mut sink = NdjsonSink::new(Vec::new());
        for r in sample_records() {
            sink.record(&r);
        }
        assert_eq!(sink.written(), 11);
        assert!(sink.error().is_none());
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        assert_eq!(text.lines().count(), 11);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""), "{line}");
        }
        // Escaping: the quoted fault description must stay one line and
        // escape its inner quotes.
        assert!(text.contains("freeze \\\"p\\\""));
        assert!(text.contains("\"events\":45,\"memo_hits\":3}"), "{text}");
    }

    #[test]
    fn memory_sink_filters_by_kind() {
        let mut m = MemorySink::new();
        for r in sample_records() {
            m.record(&r);
        }
        assert_eq!(m.of_kind("firing_start").len(), 2);
        assert_eq!(m.of_kind("bus_grant").len(), 1);
        assert_eq!(m.records.len(), 11);
    }

    #[test]
    fn shared_sink_observes_through_clone() {
        let shared = SharedSink::new(MetricsSink::new());
        let mut tracer = Tracer::new(Box::new(shared.clone()));
        tracer.emit(|| filler(3));
        tracer.emit(|| filler(4));
        assert_eq!(shared.with(|m| m.firings), 2);
        let inner = shared.into_inner();
        assert_eq!(inner.records, 2);
    }

    #[test]
    fn tracer_attach_detach_roundtrip() {
        let mut t = Tracer::disabled();
        t.attach(Box::new(MemorySink::new()));
        assert!(t.enabled());
        t.emit(|| filler(0));
        let sink = t.detach();
        assert!(sink.is_some());
        assert!(!t.enabled());
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn metrics_sink_buckets_energy_by_provenance() {
        let mut m = MetricsSink::new();
        for (tag, e) in [("measured_iss", 2e-9), ("bus_model", 1e-9), ("measured_iss", 3e-9)] {
            m.record(&TraceRecord::EnergySample {
                component: 0,
                start: 0,
                end: 1,
                energy_j: e,
                provenance: tag,
            });
        }
        assert_eq!(m.energy_samples, 3);
        assert!((m.energy_by_provenance["measured_iss"] - 5e-9).abs() < 1e-20);
        assert!((m.energy_by_provenance["bus_model"] - 1e-9).abs() < 1e-20);
    }

    #[test]
    fn power_transition_renders_and_counts() {
        let rec = TraceRecord::PowerTransition {
            at: 42,
            process: 1,
            from: "active",
            to: "clock_gated",
        };
        assert_eq!(rec.kind(), "power_transition");
        assert_eq!(
            rec.to_ndjson(),
            "{\"kind\":\"power_transition\",\"at\":42,\"process\":1,\
             \"from\":\"active\",\"to\":\"clock_gated\"}"
        );
        let mut m = MetricsSink::new();
        m.record(&rec);
        assert_eq!(m.power_transitions, 1);
        // The span before the first observed transition is settled in
        // its `from` state, counted from cycle 0.
        assert_eq!(m.state_cycles.get(&(1, "active")), Some(&42));
        assert_eq!(m.open_states.get(&1), Some(&(42, "clock_gated")));
    }

    #[test]
    fn power_residency_reconstructs_spans_and_tails() {
        let mut m = MetricsSink::new();
        let tr = |at, from, to| TraceRecord::PowerTransition { at, process: 0, from, to };
        m.record(&tr(100, "active", "clock_gated"));
        m.record(&tr(150, "clock_gated", "active"));
        m.record(&tr(300, "active", "clock_gated"));
        // Closed: active 100 + 150, gated 50; open: gated since 300.
        assert_eq!(m.power_residency(0, "active", 400), 250);
        assert_eq!(m.power_residency(0, "clock_gated", 400), 150);
        assert_eq!(m.power_residency(0, "power_gated", 400), 0);
        // Residency partitions the horizon exactly.
        assert_eq!(
            m.power_residency(0, "active", 400) + m.power_residency(0, "clock_gated", 400),
            400
        );
        // A process never mentioned is active for the whole run; a
        // synthetic cycle-0 record pins a non-active base state.
        assert_eq!(m.power_residency(7, "active", 400), 400);
        assert_eq!(m.power_residency(7, "dvfs", 400), 0);
        m.record(&TraceRecord::PowerTransition {
            at: 0,
            process: 2,
            from: "active",
            to: "dvfs",
        });
        assert_eq!(m.power_residency(2, "dvfs", 400), 400);
        assert_eq!(m.power_residency(2, "active", 400), 0);
    }

    /// A writer that fails after `ok_writes` successful writes.
    struct FailingWriter {
        ok_writes: usize,
        fail_flush: bool,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                Err(std::io::Error::new(std::io::ErrorKind::WriteZero, "full"))
            } else {
                self.ok_writes -= 1;
                Ok(buf.len())
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.fail_flush {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn ndjson_sink_swallows_write_errors_after_the_first() {
        // `writeln!` issues two writes per record (payload, then the
        // newline), so a budget of 4 admits exactly two records.
        let mut sink = NdjsonSink::new(FailingWriter { ok_writes: 4, fail_flush: false });
        for _ in 0..5 {
            sink.record(&filler(0));
        }
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.error(), Some(std::io::ErrorKind::WriteZero));
        // Recording after the first error is a silent no-op.
        sink.record(&filler(9));
        assert_eq!(sink.written(), 2);
    }

    #[test]
    fn ndjson_sink_flush_records_flush_errors() {
        let mut sink = NdjsonSink::new(FailingWriter { ok_writes: 10, fail_flush: true });
        sink.record(&filler(0));
        assert!(sink.error().is_none());
        sink.flush();
        assert_eq!(sink.error(), Some(std::io::ErrorKind::BrokenPipe));
        // A later write error must not overwrite the first failure.
        let mut sink = NdjsonSink::new(FailingWriter { ok_writes: 0, fail_flush: true });
        sink.record(&filler(0));
        sink.flush();
        assert_eq!(sink.error(), Some(std::io::ErrorKind::WriteZero));
    }

    #[test]
    fn ndjson_sink_flush_is_clean_on_healthy_writer() {
        let mut sink = NdjsonSink::new(Vec::new());
        sink.record(&filler(0));
        sink.flush();
        assert!(sink.error().is_none());
        assert_eq!(sink.written(), 1);
    }
}
