//! Time-resolved power telemetry: the windowed power-timeline sink.
//!
//! [`PowerTimelineSink`] listens to the ordinary [`TraceRecord`] stream
//! and bins every ledger charge ([`TraceRecord::EnergySample`]) into
//! fixed-width cycle windows, producing per-component and
//! per-provenance power waveforms plus per-window activity counters
//! (firings, gate evaluations, bus words, i-cache fetches) — the raw
//! material for peak/transient analysis, the VCD and Perfetto
//! exporters ([`crate::vcd`], [`crate::perfetto`]), and the
//! counter↔energy calibration dataset.
//!
//! # The float-order contract
//!
//! Window bucket sums are *reassociated* — charges are grouped by
//! window before adding — so they cannot be compared bit-for-bit
//! against the simulator's ledger (float addition is not associative,
//! and lazily settled leakage spans arrive out of window order). The
//! sink therefore keeps **two** books per component:
//!
//! * an arrival-order mirror total (`+=` of the very same `f64`s, in
//!   the very same order, as the ledger's own accumulator) — this one
//!   is bit-exact against the report and is what
//!   [`ComponentWaveform::total_j`] exposes;
//! * the per-window buckets, an exact partition of the same charges
//!   whose sum may differ from the mirror only by reassociation noise
//!   (≤ 1e-12 relative in practice — the same contract as the
//!   provenance bucket partition).
//!
//! The mirror is also what makes the timeline *window-width
//! invariant*: totals are independent of the window size by
//! construction, only the binning changes.
//!
//! Charges are binned by their **start cycle**: a charge spanning a
//! window boundary books into the window its first cycle falls in,
//! keeping every joule in exactly one bucket (spreading would break
//! the exact-partition property).

use std::collections::BTreeMap;

use crate::{TraceRecord, TraceSink};

/// Configuration of a [`PowerTimelineSink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// Window width, cycles. Clamped to ≥ 1 at construction.
    pub window_cycles: u64,
    /// Master clock, hertz — converts window energies to power.
    /// Clamped to a positive finite value at construction.
    pub clock_hz: f64,
}

impl TimelineConfig {
    /// A validated configuration: `window_cycles` is clamped to ≥ 1
    /// and a non-finite or non-positive clock falls back to 1 Hz (the
    /// sink must never panic — it lives behind a trace attach point).
    pub fn new(window_cycles: u64, clock_hz: f64) -> Self {
        TimelineConfig {
            window_cycles: window_cycles.max(1),
            clock_hz: if clock_hz.is_finite() && clock_hz > 0.0 {
                clock_hz
            } else {
                1.0
            },
        }
    }
}

/// Per-window activity counters — the `MetricsSink`-style aggregates,
/// resolved in time. One row of the calibration dataset (ROADMAP item
/// 5a) is one window's counters paired with its energies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounters {
    /// Firings started in the window.
    pub firings: u64,
    /// Gate-kernel work units (kernel-dependent, see
    /// [`TraceRecord::GateActivity`]).
    pub gate_evals: u64,
    /// Committed gate output changes (kernel-invariant).
    pub gate_events: u64,
    /// Bus words granted in blocks starting in the window.
    pub bus_words: u64,
    /// Instruction fetches observed.
    pub icache_fetches: u64,
    /// Instruction-cache misses observed.
    pub icache_misses: u64,
}

impl WindowCounters {
    fn add(&mut self, other: &WindowCounters) {
        self.firings += other.firings;
        self.gate_evals += other.gate_evals;
        self.gate_events += other.gate_events;
        self.bus_words += other.bus_words;
        self.icache_fetches += other.icache_fetches;
        self.icache_misses += other.icache_misses;
    }
}

/// One observed power-state change of a process component (including
/// the synthetic cycle-0 record the master emits for components whose
/// base state is not `active`, which makes the stream self-describing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateChange {
    /// Transition time, cycles.
    pub at: u64,
    /// Process (= component) index.
    pub process: u32,
    /// State left.
    pub from: &'static str,
    /// State entered.
    pub to: &'static str,
}

/// A timestamped anomaly mark (injected fault or watchdog trip) for
/// the exporters' instant-event tracks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyMark {
    /// Event time, cycles.
    pub at: u64,
    /// Human-readable label.
    pub label: String,
}

/// Per-component timeline state: the arrival-order mirror total and
/// the window buckets.
#[derive(Debug, Clone, Default)]
struct CompTimeline {
    /// Arrival-order mirror of the ledger accumulator (bit-exact).
    total_j: f64,
    /// Charges observed.
    records: u64,
    /// Window index → bucketed energy (reassociated partition).
    windows: BTreeMap<u64, f64>,
}

/// The windowed power-timeline sink. Attach it through the master's
/// ordinary trace seam; like every sink it is strictly observational —
/// golden reports stay bit-identical whether it is attached or not.
#[derive(Debug, Clone)]
pub struct PowerTimelineSink {
    config: TimelineConfig,
    comps: Vec<CompTimeline>,
    /// Provenance tag → window index → energy.
    provenance: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    counters: BTreeMap<u64, WindowCounters>,
    transitions: Vec<StateChange>,
    anomalies: Vec<AnomalyMark>,
    /// Highest cycle seen in any record (run horizon lower bound).
    max_cycle: u64,
}

impl PowerTimelineSink {
    /// An empty timeline with the given windowing configuration.
    pub fn new(config: TimelineConfig) -> Self {
        PowerTimelineSink {
            config,
            comps: Vec::new(),
            provenance: BTreeMap::new(),
            counters: BTreeMap::new(),
            transitions: Vec::new(),
            anomalies: Vec::new(),
            max_cycle: 0,
        }
    }

    /// The windowing configuration.
    pub fn config(&self) -> TimelineConfig {
        self.config
    }

    /// Components observed so far.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// The arrival-order mirror total of component `comp`, joules —
    /// bit-exact against the ledger total (`f64::to_bits` equality).
    pub fn component_total_j(&self, comp: usize) -> f64 {
        self.comps.get(comp).map_or(0.0, |c| c.total_j)
    }

    /// Highest cycle observed in any record.
    pub fn max_cycle(&self) -> u64 {
        self.max_cycle
    }

    fn comp_mut(&mut self, comp: u32) -> &mut CompTimeline {
        let idx = comp as usize;
        if idx >= self.comps.len() {
            self.comps.resize_with(idx + 1, CompTimeline::default);
        }
        &mut self.comps[idx]
    }

    /// Snapshots the timeline into a dense [`TimelineReport`].
    ///
    /// `names` labels components in ledger order (missing entries fall
    /// back to `comp<i>`); `end_cycle` is the run horizon (the
    /// report's `total_cycles`) — windows are materialized up to
    /// `max(end_cycle, last observed cycle)`.
    pub fn report(&self, names: &[String], end_cycle: u64) -> TimelineReport {
        let w = self.config.window_cycles;
        let horizon = end_cycle.max(self.max_cycle).max(1);
        // Window count covers the horizon; `horizon` itself is an
        // exclusive end, so the last window holds cycle `horizon - 1`.
        let windows = ((horizon - 1) / w + 1) as usize;
        let dense = |map: &BTreeMap<u64, f64>| -> Vec<f64> {
            let mut v = vec![0.0; windows];
            for (&i, &e) in map {
                if let Some(slot) = v.get_mut(i as usize) {
                    *slot += e;
                } else if let Some(last) = v.last_mut() {
                    // A charge past the horizon (defensive): keep the
                    // partition exact by folding into the last window.
                    *last += e;
                }
            }
            v
        };
        let components = self
            .comps
            .iter()
            .enumerate()
            .map(|(i, c)| ComponentWaveform {
                name: names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("comp{i}")),
                total_j: c.total_j,
                records: c.records,
                window_energy_j: dense(&c.windows),
            })
            .collect();
        let provenance = self
            .provenance
            .iter()
            .map(|(tag, map)| (*tag, dense(map)))
            .collect();
        let mut counters = vec![WindowCounters::default(); windows];
        for (&i, c) in &self.counters {
            if let Some(slot) = counters.get_mut(i as usize) {
                slot.add(c);
            } else if let Some(last) = counters.last_mut() {
                last.add(c);
            }
        }
        let mut transitions = self.transitions.clone();
        transitions.sort_by_key(|t| (t.at, t.process));
        TimelineReport {
            window_cycles: w,
            clock_hz: self.config.clock_hz,
            end_cycle: horizon,
            components,
            provenance,
            counters,
            transitions,
            anomalies: self.anomalies.clone(),
        }
    }
}

impl TraceSink for PowerTimelineSink {
    fn record(&mut self, rec: &TraceRecord) {
        let w = self.config.window_cycles;
        match rec {
            TraceRecord::EnergySample {
                component,
                start,
                end,
                energy_j,
                provenance,
            } => {
                let win = start / w;
                let c = self.comp_mut(*component);
                // The mirror: same f64, same order as the ledger.
                c.total_j += energy_j;
                c.records += 1;
                *c.windows.entry(win).or_insert(0.0) += energy_j;
                *self
                    .provenance
                    .entry(provenance)
                    .or_default()
                    .entry(win)
                    .or_insert(0.0) += energy_j;
                self.max_cycle = self.max_cycle.max(*end).max(*start);
            }
            TraceRecord::FiringStart { at, .. } => {
                self.counters.entry(at / w).or_default().firings += 1;
                self.max_cycle = self.max_cycle.max(*at);
            }
            TraceRecord::GateActivity { at, evals, events, .. } => {
                let c = self.counters.entry(at / w).or_default();
                c.gate_evals += evals;
                c.gate_events += events;
                self.max_cycle = self.max_cycle.max(*at);
            }
            TraceRecord::BusGrant { start, end, words, .. } => {
                self.counters.entry(start / w).or_default().bus_words += words;
                self.max_cycle = self.max_cycle.max(*end);
            }
            TraceRecord::IcacheBatch { at, fetches, misses, .. } => {
                let c = self.counters.entry(at / w).or_default();
                c.icache_fetches += fetches;
                c.icache_misses += misses;
                self.max_cycle = self.max_cycle.max(*at);
            }
            TraceRecord::PowerTransition { at, process, from, to } => {
                self.transitions.push(StateChange {
                    at: *at,
                    process: *process,
                    from,
                    to,
                });
                self.max_cycle = self.max_cycle.max(*at);
            }
            TraceRecord::FaultInjected { at, description } => {
                self.anomalies.push(AnomalyMark {
                    at: *at,
                    label: format!("fault: {description}"),
                });
                self.max_cycle = self.max_cycle.max(*at);
            }
            TraceRecord::WatchdogTrip { at, reason } => {
                self.anomalies.push(AnomalyMark {
                    at: *at,
                    label: format!("watchdog: {reason}"),
                });
                self.max_cycle = self.max_cycle.max(*at);
            }
            _ => {}
        }
    }
}

/// One component's dense power waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentWaveform {
    /// Component name (ledger order: processes, then bus, then icache).
    pub name: String,
    /// Arrival-order mirror total, joules — bit-exact against the
    /// ledger ([`f64::to_bits`] equality with the report total).
    pub total_j: f64,
    /// Ledger charges observed.
    pub records: u64,
    /// Energy per window, joules (exact partition, reassociated).
    pub window_energy_j: Vec<f64>,
}

/// The system peak-power window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakWindow {
    /// Window index.
    pub window: usize,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// System energy in the window, joules.
    pub energy_j: f64,
    /// System average power over the window, watts.
    pub power_w: f64,
}

/// Energy and residency of one power state across managed components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatePower {
    /// State tag (`"active"`, `"dvfs"`, `"clock_gated"`,
    /// `"power_gated"`).
    pub state: &'static str,
    /// Component-cycles spent in the state (summed over components).
    pub cycles: u64,
    /// Energy booked to windows whose start cycle fell in the state,
    /// joules.
    pub energy_j: f64,
}

impl StatePower {
    /// Average power while resident in the state, watts (0 when the
    /// state was never occupied).
    pub fn average_power_w(&self, clock_hz: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.energy_j / (self.cycles as f64 / clock_hz)
        }
    }
}

/// A dense snapshot of a [`PowerTimelineSink`]: per-component and
/// per-provenance waveforms, per-window counters, the power-state
/// timeline, and anomaly marks — plus the derived transient statistics
/// (peak window, moving-average maximum, residency-weighted power).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Window width, cycles.
    pub window_cycles: u64,
    /// Master clock, hertz.
    pub clock_hz: f64,
    /// Run horizon, cycles (exclusive end of the last window's data).
    pub end_cycle: u64,
    /// One waveform per ledger component.
    pub components: Vec<ComponentWaveform>,
    /// Energy per window per provenance tag (stable tag order).
    pub provenance: Vec<(&'static str, Vec<f64>)>,
    /// Activity counters per window.
    pub counters: Vec<WindowCounters>,
    /// Power-state changes, ordered by `(at, process)`.
    pub transitions: Vec<StateChange>,
    /// Fault/watchdog marks, in emission order.
    pub anomalies: Vec<AnomalyMark>,
}

impl TimelineReport {
    /// Number of windows.
    pub fn window_count(&self) -> usize {
        self.components
            .first()
            .map_or(self.counters.len(), |c| c.window_energy_j.len())
            .max(self.counters.len())
    }

    /// Duration of one window, seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_cycles as f64 / self.clock_hz
    }

    /// Total energy, joules (sum of the per-component mirrors;
    /// reassociated across components).
    pub fn total_energy_j(&self) -> f64 {
        self.components.iter().map(|c| c.total_j).sum()
    }

    /// System energy per window, joules (summed over components).
    pub fn system_window_energy_j(&self) -> Vec<f64> {
        let n = self.window_count();
        let mut v = vec![0.0; n];
        for c in &self.components {
            for (slot, e) in v.iter_mut().zip(&c.window_energy_j) {
                *slot += e;
            }
        }
        v
    }

    /// System average power per window, watts. Every window, including
    /// the last, is treated as full-width (the windowing rule bins by
    /// start cycle, so a partial tail window under-reads rather than
    /// inventing power).
    pub fn system_window_power_w(&self) -> Vec<f64> {
        let dt = self.window_seconds();
        self.system_window_energy_j()
            .iter()
            .map(|e| e / dt)
            .collect()
    }

    /// Average system power over the whole run, watts.
    pub fn average_power_w(&self) -> f64 {
        if self.end_cycle == 0 {
            return 0.0;
        }
        self.total_energy_j() / (self.end_cycle as f64 / self.clock_hz)
    }

    /// The peak-power window (none when the timeline is empty).
    pub fn peak(&self) -> Option<PeakWindow> {
        let dt = self.window_seconds();
        self.system_window_energy_j()
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, &e)| PeakWindow {
                window: i,
                start_cycle: i as u64 * self.window_cycles,
                energy_j: e,
                power_w: e / dt,
            })
    }

    /// Peak system power, watts (0 for an empty timeline).
    pub fn peak_power_w(&self) -> f64 {
        self.peak().map_or(0.0, |p| p.power_w)
    }

    /// Maximum of the `k`-window moving average of system power, watts
    /// (`k` is clamped to ≥ 1; 0 for an empty timeline). Smooths
    /// single-window spikes into a sustained-transient figure.
    pub fn moving_average_max_w(&self, k: usize) -> f64 {
        let k = k.max(1);
        let power = self.system_window_power_w();
        if power.is_empty() {
            return 0.0;
        }
        let k = k.min(power.len());
        let mut sum: f64 = power.iter().take(k).sum();
        let mut best = sum;
        for i in k..power.len() {
            sum += power[i] - power[i - k];
            best = best.max(sum);
        }
        best / k as f64
    }

    /// The power state of process `p` at `cycle`, from the observed
    /// transition stream. Components never mentioned by a transition
    /// are `"active"` (the master emits a synthetic cycle-0 record for
    /// any component whose base state differs).
    pub fn state_at(&self, process: u32, cycle: u64) -> &'static str {
        let mut state: Option<&'static str> = None;
        for t in &self.transitions {
            if t.process != process {
                continue;
            }
            if t.at > cycle {
                // Transitions are sorted; the first future one tells
                // us what the state was *before* it.
                return state.unwrap_or(t.from);
            }
            state = Some(t.to);
        }
        state.unwrap_or("active")
    }

    /// Per-state energy and residency, attributing each component
    /// window to the component's state at the window's start cycle.
    /// Residency cycles are summed over all components (bus and
    /// i-cache count as always-active), so the total is
    /// `components × end_cycle`.
    pub fn state_power(&self) -> Vec<StatePower> {
        const STATES: [&str; 4] = ["active", "dvfs", "clock_gated", "power_gated"];
        let mut energy: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut cycles: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (p, c) in self.components.iter().enumerate() {
            // Residency: walk this component's transitions.
            let mut mark = 0u64;
            let mut cur: Option<&'static str> = None;
            for t in self.transitions.iter().filter(|t| t.process == p as u32) {
                let at = t.at.min(self.end_cycle);
                *cycles.entry(cur.unwrap_or(t.from)).or_insert(0) += at - mark.min(at);
                mark = at;
                cur = Some(t.to);
            }
            *cycles.entry(cur.unwrap_or("active")).or_insert(0) +=
                self.end_cycle.saturating_sub(mark);
            // Energy: bin windows by state at window start.
            for (i, &e) in c.window_energy_j.iter().enumerate() {
                let start = i as u64 * self.window_cycles;
                *energy.entry(self.state_at(p as u32, start)).or_insert(0.0) += e;
            }
        }
        STATES
            .iter()
            .filter(|s| cycles.contains_key(*s) || energy.contains_key(*s))
            .map(|&state| StatePower {
                state,
                cycles: cycles.get(state).copied().unwrap_or(0),
                energy_j: energy.get(state).copied().unwrap_or(0.0),
            })
            .collect()
    }

    /// Residency-weighted average power, watts: each state's average
    /// power weighted by its share of component-cycles. Close to
    /// [`average_power_w`](Self::average_power_w) when every state's
    /// energy partition aligns with its residency partition; a gap
    /// between the two flags energy booked while nominally gated
    /// (e.g. leakage under a closed gate).
    pub fn residency_weighted_power_w(&self) -> f64 {
        let states = self.state_power();
        let total: u64 = states.iter().map(|s| s.cycles).sum();
        if total == 0 {
            return self.average_power_w();
        }
        states
            .iter()
            .map(|s| {
                (s.cycles as f64 / total as f64) * s.average_power_w(self.clock_hz)
            })
            .sum()
    }

    /// Renders the system power waveform as an ASCII bar chart,
    /// `width` characters wide at the peak.
    pub fn render_ascii(&self, width: usize) -> String {
        let power = self.system_window_power_w();
        let peak = power.iter().fold(0.0f64, |a, &b| a.max(b));
        let width = width.max(1);
        let mut out = format!(
            "system power, {} windows x {} cycles ({:.3e} s each), peak {:.4e} W\n",
            power.len(),
            self.window_cycles,
            self.window_seconds(),
            peak
        );
        for (i, &p) in power.iter().enumerate() {
            let bar = if peak > 0.0 {
                "#".repeat(((p / peak) * width as f64).round() as usize)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:>10} | {:>10.4e} W | {bar}\n",
                i as u64 * self.window_cycles,
                p
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(component: u32, start: u64, energy_j: f64, prov: &'static str) -> TraceRecord {
        TraceRecord::EnergySample {
            component,
            start,
            end: start + 10,
            energy_j,
            provenance: prov,
        }
    }

    #[test]
    fn bins_by_start_cycle_and_mirrors_totals() {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(100, 1_000.0));
        sink.record(&sample(0, 0, 1e-9, "measured_iss"));
        sink.record(&sample(0, 99, 2e-9, "measured_iss"));
        sink.record(&sample(0, 100, 4e-9, "bus_model"));
        sink.record(&sample(1, 250, 8e-9, "bus_model"));
        assert_eq!(sink.component_count(), 2);
        let expected0: f64 = 1e-9 + 2e-9 + 4e-9;
        assert_eq!(sink.component_total_j(0).to_bits(), expected0.to_bits());
        let report = sink.report(&["a".into(), "b".into()], 300);
        assert_eq!(report.components[0].window_energy_j.len(), 3);
        assert!((report.components[0].window_energy_j[0] - 3e-9).abs() < 1e-24);
        assert!((report.components[0].window_energy_j[1] - 4e-9).abs() < 1e-24);
        assert!((report.components[1].window_energy_j[2] - 8e-9).abs() < 1e-24);
        assert_eq!(report.provenance.len(), 2);
    }

    #[test]
    fn peak_and_moving_average() {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(10, 1_000.0));
        // 1 nJ, 5 nJ, 1 nJ over three windows of 10 ms each.
        sink.record(&sample(0, 0, 1e-9, "measured_iss"));
        sink.record(&sample(0, 10, 5e-9, "measured_iss"));
        sink.record(&sample(0, 20, 1e-9, "measured_iss"));
        let r = sink.report(&["a".into()], 30);
        let peak = r.peak().expect("nonempty");
        assert_eq!(peak.window, 1);
        assert_eq!(peak.start_cycle, 10);
        assert!((peak.power_w - 5e-9 / 0.01).abs() < 1e-12);
        // 2-window moving average max covers windows 1..=2.
        let ma = r.moving_average_max_w(2);
        assert!((ma - (5e-9 + 1e-9) / 2.0 / 0.01).abs() < 1e-12);
        assert!(r.moving_average_max_w(1) >= ma);
    }

    #[test]
    fn state_timeline_attributes_windows() {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(10, 1_000.0));
        sink.record(&sample(0, 0, 1e-9, "measured_iss"));
        sink.record(&TraceRecord::PowerTransition {
            at: 10,
            process: 0,
            from: "active",
            to: "clock_gated",
        });
        sink.record(&sample(0, 15, 2e-9, "leakage"));
        sink.record(&TraceRecord::PowerTransition {
            at: 20,
            process: 0,
            from: "clock_gated",
            to: "active",
        });
        let r = sink.report(&["a".into()], 30);
        assert_eq!(r.state_at(0, 5), "active");
        assert_eq!(r.state_at(0, 15), "clock_gated");
        assert_eq!(r.state_at(0, 25), "active");
        let states = r.state_power();
        let gated = states
            .iter()
            .find(|s| s.state == "clock_gated")
            .expect("gated state present");
        assert_eq!(gated.cycles, 10);
        assert!((gated.energy_j - 2e-9).abs() < 1e-24);
        let active = states.iter().find(|s| s.state == "active").expect("active");
        assert_eq!(active.cycles, 20);
    }

    #[test]
    fn anomalies_and_counters_are_collected() {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(100, 1_000.0));
        sink.record(&TraceRecord::FiringStart { at: 5, process: 0, transition: 0 });
        sink.record(&TraceRecord::GateActivity {
            at: 7,
            process: 0,
            evals: 12,
            events: 3,
            memo_hits: 0,
        });
        sink.record(&TraceRecord::BusGrant {
            at: 110,
            master: 0,
            start: 110,
            end: 120,
            words: 8,
            energy_j: 1e-10,
            request_done: true,
        });
        sink.record(&TraceRecord::IcacheBatch {
            at: 8,
            process: 0,
            fetches: 6,
            hits: 5,
            misses: 1,
            stall_cycles: 4,
            energy_j: 1e-11,
        });
        sink.record(&TraceRecord::FaultInjected { at: 50, description: "stall".into() });
        sink.record(&TraceRecord::WatchdogTrip { at: 60, reason: "budget".into() });
        let r = sink.report(&[], 200);
        assert_eq!(r.counters.len(), 2);
        assert_eq!(r.counters[0].firings, 1);
        assert_eq!(r.counters[0].gate_evals, 12);
        assert_eq!(r.counters[0].icache_fetches, 6);
        assert_eq!(r.counters[0].icache_misses, 1);
        assert_eq!(r.counters[1].bus_words, 8);
        assert_eq!(r.anomalies.len(), 2);
        assert!(r.anomalies[0].label.starts_with("fault:"));
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let c = TimelineConfig::new(0, f64::NAN);
        assert_eq!(c.window_cycles, 1);
        assert_eq!(c.clock_hz, 1.0);
        let sink = PowerTimelineSink::new(c);
        let r = sink.report(&[], 0);
        assert_eq!(r.peak_power_w(), 0.0);
        assert_eq!(r.average_power_w(), 0.0);
        assert!(r.render_ascii(40).contains("system power"));
    }

    #[test]
    fn render_ascii_marks_the_peak() {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(10, 1_000.0));
        sink.record(&sample(0, 0, 1e-9, "measured_iss"));
        sink.record(&sample(0, 10, 4e-9, "measured_iss"));
        let text = sink.report(&["a".into()], 20).render_ascii(40);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].ends_with(&"#".repeat(40)), "{text}");
    }
}
