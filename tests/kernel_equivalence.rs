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
//!
//! The suite also drives the kernels and the lockstep lane simulators
//! directly on the largest synthesized netlist of the tcpip system
//! (its `checksum` process): every kernel, every lane and the
//! lane-scheduled Monte-Carlo sweep must match a scalar event-driven
//! run bit for bit. Those tests pin each kernel explicitly, so they
//! need no environment lock.

mod corpus;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cfsm::TransitionId;
use co_estimation::{
    run_lane_sweep, run_lane_sweep_serial, Acceleration, CoSimConfig, CoSimulator,
    EstimatorBackend, FaultPlan, LaneSweepConfig, LaneUnit, SocDescription,
};
use desim::WatchdogConfig;
use detrand::Rng;
use gatesim::{
    EnergyReport, HwCfsm, LaneSim, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim, Simulator,
};
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

/// Per-input probability of a new value each cycle in the checksum
/// netlist tests: low, like the firing protocol's mostly held ports.
const P_TOGGLE: f64 = 0.1;

/// The largest transition netlist of tcpip's synthesized `checksum`
/// process (5 091 gates), simulated on every detailed firing of the
/// Fig. 7 sweep's hottest hardware process.
fn checksum_netlist() -> Arc<Netlist> {
    let soc = tcpip::build(&TcpIpParams::fig7_defaults()).expect("valid params");
    let config = CoSimConfig::date2000_defaults();
    let p = soc
        .network
        .process_by_name("checksum")
        .expect("tcpip has a checksum process");
    let hw = HwCfsm::synthesize(soc.network.cfsm(p), &config.synth, &config.hw_power)
        .expect("checksum synthesizes");
    let largest = (0..hw.transition_count() as u32)
        .map(|k| hw.transition(TransitionId(k)))
        .max_by_key(|t| t.gate_count())
        .expect("at least one transition");
    Arc::clone(largest.netlist())
}

/// Seeded stimulus: per cycle, the `(input, value)` pairs to force.
fn stimulus(netlist: &Netlist, cycles: usize, seed: u64) -> Vec<Vec<(NetId, bool)>> {
    let primary = netlist.primary_inputs();
    let mut rng = Rng::new(seed);
    (0..cycles)
        .map(|_| {
            let mut changes = Vec::new();
            for &p in &primary {
                if rng.bool_with(P_TOGGLE) {
                    changes.push((p, rng.bool_with(0.5)));
                }
            }
            changes
        })
        .collect()
}

fn scalar(netlist: &Arc<Netlist>, kernel: SimKernel) -> Simulator {
    Simulator::with_kernel(Arc::clone(netlist), PowerConfig::date2000_defaults(), kernel)
        .expect("valid netlist")
}

fn energy_bits(report: &EnergyReport) -> Vec<u64> {
    report.per_cycle_j.iter().map(|e| e.to_bits()).collect()
}

/// Steps one kernel through `stim`: per cycle, the energy bits and the
/// output bus; then the gate-evaluation and gate-event counters.
fn step_kernel(
    netlist: &Arc<Netlist>,
    kernel: SimKernel,
    stim: &[Vec<(NetId, bool)>],
) -> (Vec<(u64, u64)>, u64, u64) {
    let mut sim = scalar(netlist, kernel);
    let outputs: Vec<NetId> = netlist.outputs().iter().map(|(_, n)| *n).collect();
    let mut trace = Vec::with_capacity(stim.len());
    for inputs in stim {
        for &(net, v) in inputs {
            sim.set_input(net, v);
        }
        let e = sim.step();
        trace.push((e.to_bits(), sim.value_bus(&outputs)));
    }
    (trace, sim.gate_evals(), sim.gate_events())
}

#[test]
fn kernels_agree_bit_for_bit_on_the_checksum_netlist() {
    let netlist = checksum_netlist();
    let stim = stimulus(&netlist, 2_000, 0xBE9C);
    let (event, event_evals, event_events) = step_kernel(&netlist, SimKernel::EventDriven, &stim);
    let (oblivious, oblivious_evals, oblivious_events) =
        step_kernel(&netlist, SimKernel::Oblivious, &stim);
    let (simd, _, simd_events) = step_kernel(&netlist, SimKernel::Simd, &stim);
    assert!(oblivious == event, "oblivious per-cycle energy or outputs diverged");
    assert!(simd == event, "simd per-cycle energy or outputs diverged");
    assert_eq!(oblivious_events, event_events, "oblivious gate_events");
    assert_eq!(simd_events, event_events, "simd gate_events");
    assert!(
        event_evals < oblivious_evals,
        "event-driven must evaluate strictly fewer gates ({event_evals} vs {oblivious_evals})"
    );

    // Simd through `run_block`, with chunk seams on and across the
    // 64-lane words of its 256-cycle window.
    let chunks = [1usize, 7, 63, 64, 65, 100, 255, 256, 257];
    let mut sim = scalar(&netlist, SimKernel::Simd);
    let mut at = 0;
    for len in chunks.iter().cycle() {
        if at == stim.len() {
            break;
        }
        let end = (at + len).min(stim.len());
        sim.run_block(&stim[at..end]);
        at = end;
    }
    let outputs: Vec<NetId> = netlist.outputs().iter().map(|(_, n)| *n).collect();
    let want: Vec<u64> = event.iter().map(|&(e, _)| e).collect();
    assert!(energy_bits(sim.report()) == want, "simd run_block per-cycle energy diverged");
    assert_eq!(Some(sim.value_bus(&outputs)), event.last().map(|&(_, bus)| bus));
    assert_eq!(sim.gate_events(), event_events, "simd run_block gate_events");
}

/// The lockstep lane simulators' shared surface.
trait Lockstep {
    fn set_input(&mut self, lane: usize, net: NetId, value: bool);
    fn step(&mut self);
    fn report(&self, lane: usize) -> &EnergyReport;
    fn value(&self, net: NetId, lane: usize) -> bool;
    fn toggle_count(&self, net: NetId, lane: usize) -> u64;
}

macro_rules! lockstep {
    ($($sim:ty),*) => {$(
        impl Lockstep for $sim {
            fn set_input(&mut self, lane: usize, net: NetId, value: bool) {
                <$sim>::set_input(self, lane, net, value)
            }
            fn step(&mut self) {
                <$sim>::step(self)
            }
            fn report(&self, lane: usize) -> &EnergyReport {
                <$sim>::report(self, lane)
            }
            fn value(&self, net: NetId, lane: usize) -> bool {
                <$sim>::value(self, net, lane)
            }
            fn toggle_count(&self, net: NetId, lane: usize) -> u64 {
                <$sim>::toggle_count(self, net, lane)
            }
        }
    )*};
}

lockstep!(LaneSim, SimdLaneSim);

/// Steps `sim` with one independent seeded stream per lane, then
/// requires every lane to match a scalar event-driven run of its
/// stream: per-cycle energy bits, every net's value and toggle count.
fn assert_lanes_match_scalar_runs(
    name: &str,
    netlist: &Arc<Netlist>,
    mut sim: impl Lockstep,
    lanes: usize,
    cycles: usize,
    seed: u64,
) {
    let streams: Vec<_> = (0..lanes)
        .map(|l| stimulus(netlist, cycles, seed ^ ((l as u64) << 16)))
        .collect();
    for j in 0..cycles {
        for (l, stream) in streams.iter().enumerate() {
            for &(net, v) in &stream[j] {
                sim.set_input(l, net, v);
            }
        }
        sim.step();
    }
    for (l, stream) in streams.iter().enumerate() {
        let mut reference = scalar(netlist, SimKernel::EventDriven);
        for inputs in stream {
            for &(net, v) in inputs {
                reference.set_input(net, v);
            }
            reference.step();
        }
        assert!(
            energy_bits(sim.report(l)) == energy_bits(reference.report()),
            "{name} lane {l}: per-cycle energy diverged from its scalar run"
        );
        for i in 0..netlist.gate_count() {
            let net = NetId(i as u32);
            assert_eq!(sim.value(net, l), reference.value(net), "{name} lane {l}: net {i}");
            assert_eq!(
                sim.toggle_count(net, l),
                reference.toggle_count(net),
                "{name} lane {l}: toggles of net {i}"
            );
        }
    }
}

#[test]
fn every_lockstep_lane_matches_a_scalar_run_on_the_checksum_netlist() {
    let netlist = checksum_netlist();
    let power = PowerConfig::date2000_defaults();
    let lanes = LaneSim::new(Arc::clone(&netlist), power.clone(), 8).expect("valid netlist");
    assert_lanes_match_scalar_runs("LaneSim", &netlist, lanes, 8, 300, 0xC9EC);
    // Past one `u64` word, so the wide words and their seams are checked.
    let wide = SimdLaneSim::new(Arc::clone(&netlist), power, 80).expect("valid netlist");
    assert_lanes_match_scalar_runs("SimdLaneSim", &netlist, wide, 80, 200, 0x51D0);
}

#[test]
fn lane_scheduled_monte_carlo_sweep_equals_serial_runs_in_fewer_evaluations() {
    let netlist = checksum_netlist();
    let units: Vec<LaneUnit> = (0..32u64)
        .map(|i| LaneUnit::MonteCarlo { seed: 0x5EED ^ (i << 8) })
        .collect();
    let config = LaneSweepConfig {
        cycles: 200,
        toggle_probability: P_TOGGLE,
        max_lanes: 256,
    };
    let power = PowerConfig::date2000_defaults();
    let lanes = run_lane_sweep(&netlist, &power, &units, &config).expect("valid netlist");
    let serial = run_lane_sweep_serial(&netlist, &power, &units, &config).expect("valid netlist");
    assert!(lanes.points == serial.points, "lane sweep points diverged from serial runs");
    assert_eq!(lanes.gate_events, serial.gate_events);
    // One lockstep evaluation covers all 32 lanes, so the lane sweep
    // does strictly less gate work than one scalar run per unit.
    assert!(
        lanes.gate_evals < serial.gate_evals,
        "lane sweep {} gate evaluations vs serial {}",
        lanes.gate_evals,
        serial.gate_evals
    );
}
