//! System-level kernel equivalence: every gate-simulation kernel —
//! event-driven (the default), oblivious, and simd — must reproduce the
//! exact same co-simulation report, golden snapshots compared down to
//! float bit patterns, on every reference system and a corpus of
//! generated systems, with trace sinks attached, and under fault
//! injection.
//!
//! This is the system-level counterpart of the gatesim differential
//! fuzz suite: it runs the whole co-estimation stack (master, bus,
//! cache, synthesized hardware, and the hardware cost tables the
//! macro-model and the linear backend characterize) under the
//! `GATESIM_KERNEL` escape hatch. The suite owns its process (integration tests link
//! separately), but its `#[test]` fns share that process, so every
//! environment mutation is serialized behind one lock.

mod corpus;

use std::path::PathBuf;
use std::sync::Mutex;

use co_estimation::{
    Acceleration, CoSimConfig, CoSimulator, EstimatorBackend, FaultPlan, SocDescription,
};
use desim::WatchdogConfig;
use soctrace::{MetricsSink, SharedSink};
use systems::automotive::{self, AutomotiveParams};
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

/// Serializes all `GATESIM_*` environment mutation across the tests in
/// this binary (they run on parallel threads within one process).
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
        num_packets: 10,
        len_range: (8, 24),
        pkt_period: 5_000,
        seed: 11,
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

/// Runs a system with a [`MetricsSink`] attached; returns the golden
/// snapshot plus the aggregated gate counters.
fn run_with_metrics(soc: SocDescription, config: CoSimConfig) -> (String, MetricsSink) {
    let metrics = SharedSink::new(MetricsSink::new());
    let mut sim = CoSimulator::new(soc, config).expect("system builds");
    sim.attach_trace(Box::new(metrics.clone()));
    let snapshot = sim.run().golden_snapshot();
    drop(sim);
    (snapshot, metrics.into_inner())
}

#[test]
fn every_kernel_reproduces_the_default_snapshot_on_all_systems() {
    let generated = corpus::live_hw_systems()
        .into_iter()
        .map(|soc| (soc.name.clone(), soc));
    let systems = all_systems()
        .into_iter()
        .map(|(name, soc)| (name.to_string(), soc))
        .chain(generated);
    for (system, soc) in systems {
        let mut baseline: Option<(String, MetricsSink)> = None;
        for (name, kernel) in KERNELS {
            let (snapshot, metrics) = with_kernel(kernel, || {
                run_with_metrics(soc.clone(), CoSimConfig::date2000_defaults())
            });
            match &baseline {
                None => baseline = Some((snapshot, metrics)),
                Some((want_snap, want_metrics)) => {
                    assert_eq!(
                        &snapshot, want_snap,
                        "{system}: kernel {name} diverged from the default report"
                    );
                    // `gate_events` counts committed per-cycle gate
                    // output changes — kernel-invariant by contract, so
                    // cross-kernel MetricsSink aggregates stay
                    // comparable. `gate_evals` counts kernel work units
                    // (a simd eval covers up to 256 cycles) and is
                    // allowed to differ.
                    assert_eq!(
                        metrics.gate_events, want_metrics.gate_events,
                        "{system}: kernel {name} changed the gate_events aggregate"
                    );
                    assert!(
                        metrics.gate_evals > 0,
                        "{system}: kernel {name} reported no gate work"
                    );
                    // The default run warmed the synthesis memo, so this
                    // instance was built from a shared plan. The forced
                    // kernel must still be the one that ran: the
                    // oblivious sweep evaluates every gate every cycle,
                    // strictly more than the event-driven default.
                    if name == "oblivious" {
                        assert!(
                            metrics.gate_evals > want_metrics.gate_evals,
                            "{system}: forced oblivious kernel did not run on a warm memo \
                             ({} evals vs the default's {})",
                            metrics.gate_evals,
                            want_metrics.gate_evals
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn kernels_stay_bitwise_identical_with_an_ndjson_trace_attached() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/traces");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let mut baseline: Option<String> = None;
    for (name, kernel) in KERNELS {
        let path = dir.join(format!(
            "kernel_equivalence_{}.ndjson",
            name.replace(['(', ')'], "_")
        ));
        let snapshot = with_kernel(kernel, || {
            let mut sim =
                CoSimulator::new(small_tcpip(), CoSimConfig::date2000_defaults())
                    .expect("system builds");
            let file = std::fs::File::create(&path).expect("create trace file");
            sim.attach_trace(Box::new(soctrace::NdjsonSink::new(std::io::BufWriter::new(
                file,
            ))));
            let snapshot = sim.run().golden_snapshot();
            drop(sim.detach_trace()); // flush the NDJSON writer
            snapshot
        });
        let meta = std::fs::metadata(&path).expect("trace file exists");
        assert!(meta.len() > 0, "kernel {name}: trace produced no records");
        match &baseline {
            None => baseline = Some(snapshot),
            Some(want) => assert_eq!(
                &snapshot, want,
                "kernel {name} diverged with an NDJSON trace attached"
            ),
        }
    }
}

#[test]
fn kernels_agree_under_a_nonempty_fault_plan() {
    // A fault plan that perturbs the schedule (dropped kick-off event,
    // duplicated arrival, a bus stall) under a generous watchdog: the
    // degraded trajectory must still be kernel-independent, bit for bit.
    let faults = || {
        FaultPlan::new()
            .drop_event(1, "CHK_GO")
            .duplicate_event(5_500, "PKT_READY")
            .stall_bus(10_000, 2_000)
    };
    let guard = WatchdogConfig {
        max_cycles: Some(2_000_000),
        max_events: Some(200_000),
        max_stagnant_events: Some(50_000),
        ..WatchdogConfig::unlimited()
    };
    let mut baseline: Option<String> = None;
    for (name, kernel) in KERNELS {
        let config = CoSimConfig::date2000_defaults()
            .with_faults(faults())
            .with_watchdog(guard.clone());
        let snapshot = with_kernel(kernel, || {
            CoSimulator::new(small_tcpip(), config)
                .expect("system builds")
                .run()
                .golden_snapshot()
        });
        match &baseline {
            None => baseline = Some(snapshot),
            Some(want) => assert_eq!(
                &snapshot, want,
                "kernel {name} diverged under fault injection"
            ),
        }
    }
}

#[test]
fn every_kernel_characterizes_the_same_cost_tables() {
    // The macro-model layer and the linear backend price firings from
    // hardware tables characterized by gate-level simulation. Clearing
    // the synthesis memo inside each kernel's run makes that kernel
    // characterize the tables itself rather than read the ones an
    // earlier kernel left in the memo.
    let defaults = CoSimConfig::date2000_defaults();
    for (mode, config) in [
        ("macromodel", defaults.with_accel(Acceleration::macromodel())),
        ("linear", defaults.with_backend(EstimatorBackend::Linear)),
    ] {
        let mut baseline: Option<String> = None;
        for (name, kernel) in KERNELS {
            let snapshot = with_kernel(kernel, || {
                gatesim::clear_synth_cache();
                CoSimulator::new(small_tcpip(), config.clone())
                    .expect("system builds")
                    .run()
                    .golden_snapshot()
            });
            match &baseline {
                None => baseline = Some(snapshot),
                Some(want) => assert_eq!(
                    &snapshot, want,
                    "{mode}: kernel {name} diverged from the default report"
                ),
            }
        }
    }
}
