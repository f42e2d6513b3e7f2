//! Power-timeline correctness contract:
//!
//! * the sink's per-component mirror totals are **bit-identical** to
//!   the energy ledger on every reference system × acceleration mode ×
//!   a nonempty power policy (same `f64`s, same `+=` order);
//! * the window bins are an exact partition of each component's energy
//!   (window sums re-associate float addition, so they match the
//!   mirror to relative 1e-12, and the mirror matches the ledger to
//!   the bit);
//! * the binning is invariant in the window width;
//! * attaching the sink never perturbs a golden snapshot, under every
//!   `GATESIM_KERNEL`;
//! * the VCD and Perfetto exporters emit documents that pass the
//!   in-repo validators on real runs.
//!
//! The suite owns its process (integration tests link separately), so
//! the `GATESIM_KERNEL` environment mutation is serialized behind one
//! lock local to this binary.

use std::sync::Mutex;

use co_estimation::{
    Acceleration, CachingConfig, ComponentId, CoSimConfig, CoSimReport, CoSimulator,
    GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy, SamplingConfig, SocDescription,
};
use soctrace::json::JsonValue;
use soctrace::{
    check_vcd, json, write_perfetto, write_vcd, PowerTimelineSink, SharedSink, TimelineConfig,
    TimelineReport,
};
use systems::automotive::{self, AutomotiveParams};
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

/// Serializes `GATESIM_KERNEL` mutation across the tests in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The three kernels as `GATESIM_KERNEL` values; `None` is "leave the
/// environment alone" — the structural default.
const KERNELS: [(&str, Option<&str>); 3] = [
    ("event(default)", None),
    ("oblivious", Some("oblivious")),
    ("simd", Some("simd")),
];

/// Runs `f` with the gate-simulation kernel selection pinned to
/// `kernel`, holding the environment lock for the duration.
fn with_kernel<T>(kernel: Option<&str>, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().expect("env lock");
    match kernel {
        Some(k) => std::env::set_var("GATESIM_KERNEL", k),
        None => std::env::remove_var("GATESIM_KERNEL"),
    }
    let out = f();
    std::env::remove_var("GATESIM_KERNEL");
    out
}

fn small_tcpip() -> SocDescription {
    tcpip::build(&TcpIpParams {
        num_packets: 8,
        len_range: (8, 24),
        pkt_period: 5_000,
        seed: 3,
    })
    .expect("valid params")
}

fn all_systems() -> Vec<(&'static str, SocDescription)> {
    vec![
        ("tcpip", small_tcpip()),
        (
            "producer_consumer",
            producer_consumer::build(&ProducerConsumerParams::default()).expect("valid params"),
        ),
        (
            "automotive",
            automotive::build(&AutomotiveParams::default()).expect("valid params"),
        ),
    ]
}

fn all_modes() -> Vec<(&'static str, Acceleration)> {
    vec![
        ("baseline", Acceleration::none()),
        ("caching", Acceleration::caching(CachingConfig::new())),
        ("macromodel", Acceleration::macromodel()),
        ("sampling", Acceleration::sampling(SamplingConfig { period: 4 })),
    ]
}

/// A non-noop policy for any system: leakage on every component, the
/// first process clock-gated, the second (when present) power-gated,
/// the last assigned a DVFS operating point.
fn managed_policy(soc: &SocDescription) -> PowerPolicy {
    let names: Vec<String> = soc
        .network
        .process_ids()
        .map(|p| soc.network.cfsm(p).name().to_string())
        .collect();
    let mut policy = PowerPolicy::named("managed")
        .with_leakage(LeakageModel::with_default_rate(1.5e-3))
        .with_operating_point(OperatingPoint::new("low", 0.85, 0.7))
        .gate(names[0].clone(), GatingPolicy::clock(300));
    if names.len() > 1 {
        policy = policy.gate(names[1].clone(), GatingPolicy::power(600, 2.0e-8, 12));
    }
    if let Some(last) = names.last() {
        policy = policy.dvfs(last.clone(), 0);
    }
    policy
}

/// Runs a system with a [`PowerTimelineSink`] attached at the given
/// window width; returns the report and the binned timeline.
fn run_with_timeline(
    soc: SocDescription,
    config: CoSimConfig,
    window_cycles: u64,
) -> (CoSimReport, TimelineReport) {
    let clock_hz = config.clock_hz;
    let sink = SharedSink::new(PowerTimelineSink::new(TimelineConfig::new(
        window_cycles,
        clock_hz,
    )));
    let mut sim = CoSimulator::new(soc, config).expect("system builds");
    sim.attach_trace(Box::new(sink.clone()));
    let report = sim.run();
    let names = sim.component_names();
    let timeline = sink.with(|s| s.report(&names, report.total_cycles));
    (report, timeline)
}

/// Relative-tolerance check for sums that re-associate float addition.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1e-300)
}

#[test]
fn mirror_totals_are_bit_identical_to_the_ledger_everywhere() {
    let base = CoSimConfig::date2000_defaults();
    for (system, soc) in all_systems() {
        for (mode, accel) in all_modes() {
            let config = base
                .with_accel(accel)
                .with_power_policy(managed_policy(&soc));
            let (report, tl) = run_with_timeline(soc.clone(), config, 1_000);
            assert_eq!(
                tl.components.len(),
                report.account.component_count(),
                "{system}/{mode}: component coverage"
            );
            for (i, c) in tl.components.iter().enumerate() {
                let ledger = report.account.totals(ComponentId(i as u32)).energy_j;
                // The mirror applies the same `f64`s in the same `+=`
                // order as the ledger: bit-identity, not tolerance.
                assert_eq!(
                    c.total_j.to_bits(),
                    ledger.to_bits(),
                    "{system}/{mode}: mirror for `{}` ({} vs {ledger})",
                    c.name,
                    c.total_j
                );
                // The window bins partition the same energy (window
                // sums re-associate, so tolerance applies here).
                let window_sum: f64 = c.window_energy_j.iter().sum();
                assert!(
                    close(window_sum, ledger),
                    "{system}/{mode}: windows for `{}` sum to {window_sum}, ledger {ledger}",
                    c.name
                );
            }
        }
    }
}

#[test]
fn binning_is_invariant_in_the_window_width() {
    let soc = small_tcpip();
    let config = CoSimConfig::date2000_defaults().with_power_policy(managed_policy(&soc));
    let reference = run_with_timeline(soc.clone(), config.clone(), 1_000);
    for width in [1u64, 7, 100, 1_000, 10_000, 1 << 40] {
        let (report, tl) = run_with_timeline(soc.clone(), config.clone(), width);
        assert_eq!(
            report.golden_snapshot(),
            reference.0.golden_snapshot(),
            "width {width}: the sink perturbed the run"
        );
        for (i, c) in tl.components.iter().enumerate() {
            // Mirror totals are width-independent to the bit.
            assert_eq!(
                c.total_j.to_bits(),
                reference.1.components[i].total_j.to_bits(),
                "width {width}: mirror drifted for `{}`",
                c.name
            );
            let window_sum: f64 = c.window_energy_j.iter().sum();
            assert!(
                close(window_sum, c.total_j),
                "width {width}: windows for `{}` sum to {window_sum}, mirror {}",
                c.name,
                c.total_j
            );
        }
        // Provenance lanes partition the same total as the components.
        let prov_sum: f64 = tl.provenance.iter().flat_map(|(_, v)| v.iter()).sum();
        assert!(
            close(prov_sum, tl.total_energy_j()),
            "width {width}: provenance lanes sum to {prov_sum}, total {}",
            tl.total_energy_j()
        );
    }
}

#[test]
fn attached_sink_never_perturbs_goldens_under_any_kernel() {
    for (kernel_name, kernel) in KERNELS {
        with_kernel(kernel, || {
            for (system, soc) in all_systems() {
                let config =
                    CoSimConfig::date2000_defaults().with_power_policy(managed_policy(&soc));
                let plain = CoSimulator::new(soc.clone(), config.clone())
                    .expect("system builds")
                    .run();
                let (observed, tl) = run_with_timeline(soc.clone(), config, 500);
                assert_eq!(
                    plain.golden_snapshot(),
                    observed.golden_snapshot(),
                    "{system}/{kernel_name}: timeline sink perturbed the report"
                );
                assert!(
                    tl.total_energy_j() > 0.0,
                    "{system}/{kernel_name}: timeline captured nothing"
                );
            }
        });
    }
}

#[test]
fn state_attribution_and_peaks_are_physical_on_a_managed_run() {
    let soc = small_tcpip();
    let config = CoSimConfig::date2000_defaults().with_power_policy(managed_policy(&soc));
    let (report, tl) = run_with_timeline(soc, config, 1_000);

    let peak = tl.peak().expect("nonempty run has a peak");
    assert!(peak.power_w > 0.0 && peak.power_w.is_finite());
    assert!(peak.energy_j <= tl.total_energy_j());
    assert!(tl.average_power_w() <= peak.power_w, "peak below average");
    let ma = tl.moving_average_max_w(3);
    assert!(
        ma <= peak.power_w && ma >= tl.average_power_w(),
        "moving-average max must sit between the average and the peak"
    );

    // State attribution partitions the run's energy and residency.
    let states = tl.state_power();
    let state_energy: f64 = states.iter().map(|s| s.energy_j).sum();
    assert!(close(state_energy, tl.total_energy_j()));
    let comp_cycles: u64 = states.iter().map(|s| s.cycles).sum();
    assert_eq!(
        comp_cycles,
        report.total_cycles * tl.components.len() as u64,
        "every component is in exactly one state at every cycle"
    );
    // The managed policy pins the last process to DVFS from cycle 0
    // (via the synthetic transition), so DVFS residency must be real.
    assert!(
        states.iter().any(|s| s.state == "dvfs" && s.cycles > 0),
        "DVFS residency missing: {states:?}"
    );
}

#[test]
fn exporters_emit_valid_documents_on_a_real_run() {
    let soc = small_tcpip();
    let config = CoSimConfig::date2000_defaults().with_power_policy(managed_policy(&soc));
    let (_, tl) = run_with_timeline(soc, config, 1_000);

    let vcd = write_vcd(&tl);
    let summary = check_vcd(&vcd).expect("emitted VCD parses");
    // One real signal per component plus the system total, one 2-bit
    // state reg per process that transitions.
    assert!(summary.signals as usize >= tl.components.len() + 1);
    assert!(summary.changes > 0);
    assert_eq!(
        summary.end_time,
        (tl.end_cycle as f64 * 1e9 / tl.clock_hz).round() as u64,
        "VCD horizon must land on the run's final cycle"
    );

    let perfetto = write_perfetto(&tl);
    let doc = json::parse(&perfetto).expect("emitted Perfetto JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    // One counter event per window per (component + system), plus one
    // instant per transition and anomaly, plus thread metadata.
    let expected_counters = tl.window_count() * (tl.components.len() + 1);
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
        .count();
    assert_eq!(counters, expected_counters);
    let instants = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
        .count();
    assert_eq!(instants, tl.transitions.len() + tl.anomalies.len());
}
