//! System-level kernel equivalence: the two gate-simulation kernels —
//! event-driven (the default) and oblivious (the reference) — must
//! reproduce the exact same co-simulation report, golden snapshots
//! compared down to float bit patterns, on every reference system and a
//! corpus of generated systems, with trace sinks attached, and under
//! fault injection. The hardware cost tables must not depend on the
//! hatch at all, and a kernel name the hatch does not know, such as the
//! removed `simd`, is a typed build error.
//!
//! This is the system-level counterpart of the gatesim differential
//! fuzz suite: it runs the whole co-estimation stack (master, bus,
//! cache, synthesized hardware, and the hardware cost tables the
//! macro-model characterizes) under the `GATESIM_KERNEL` escape hatch. The suite owns its process (integration tests link
//! separately), but its `#[test]` fns share that process, so every
//! environment mutation, and every synthesis that reads it, is
//! serialized behind one lock.
//!
//! The suite also drives the kernels and the lockstep lane simulators
//! directly on the largest synthesized netlist of the tcpip system
//! (its `checksum` process): every scalar kernel, every lane and the
//! lane-scheduled Monte-Carlo sweep must match a scalar event-driven
//! run bit for bit. Those runs pin each kernel explicitly. The
//! event-driven kernel's evaluation and event counts are pinned exactly
//! there and on a standalone producer_consumer run.

mod corpus;

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cfsm::TransitionId;
use co_estimation::{
    characterize_hw, fault_matrix_units, run_lane_sweep, run_lane_sweep_serial, Acceleration,
    BuildEstimatorError, CoSimConfig, CoSimulator, FaultPlan, LaneSweepConfig, LaneUnit,
    SocDescription,
};
use desim::WatchdogConfig;
use detrand::Rng;
use gatesim::{
    EnergyReport, GateKind, HwCfsm, LaneSim, NetId, Netlist, PowerConfig, SimKernel, SimdLaneSim,
    Simulator, SynthConfig, SynthError, ValidateNetlistError,
};
use soctrace::{MetricsSink, SharedSink};
use systems::automotive::{self, AutomotiveParams};
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

/// Serializes all `GATESIM_*` environment mutation across the tests in
/// this binary (they run on parallel threads within one process).
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// The kernels that run synthesized hardware, as `GATESIM_KERNEL`
/// values; `None` is "leave the environment alone" — the structural
/// default.
const KERNELS: [(&str, Option<&str>); 2] =
    [("event(default)", None), ("oblivious", Some("oblivious"))];

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
                    // and is allowed to differ.
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
    // The macro-model layer prices firings from hardware tables
    // characterized by gate-level simulation. Clearing the synthesis
    // memo inside each kernel's run makes the tables be characterized
    // again under that kernel's hatch rather than read from the memo.
    let config = CoSimConfig::date2000_defaults().with_accel(Acceleration::macromodel());
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
                "macromodel: kernel {name} diverged from the default report"
            ),
        }
    }
}

#[test]
fn the_hardware_cost_table_ignores_the_kernel_hatch() {
    // Characterization never reads the hatch (the flop-free templates
    // are priced in one word pass, the registers stepped event-driven),
    // so no `GATESIM_KERNEL` value, not even an unknown one, may price
    // an op differently from the committed table.
    for kernel in [None, Some("event"), Some("oblivious"), Some("simd"), Some("turbo")] {
        let text = with_kernel(kernel, || {
            gatesim::clear_synth_cache();
            characterize_hw(&SynthConfig::default(), &PowerConfig::date2000_defaults()).to_text()
        });
        assert!(
            text == include_str!("goldens/hw_parameter_file.txt"),
            "GATESIM_KERNEL={kernel:?} changed the hardware parameter file:\n{text}"
        );
    }
}

#[test]
fn forcing_the_removed_simd_kernel_is_a_typed_build_error() {
    // `simd` named the windowed kernel, which is gone: it is now an
    // unknown kernel like any other, rejected when synthesis builds the
    // first hardware simulator.
    let system = with_kernel(Some("simd"), || {
        CoSimulator::new(small_tcpip(), CoSimConfig::date2000_defaults()).map(|_| ())
    });
    let Err(BuildEstimatorError::Synth(_, SynthError::Netlist(ValidateNetlistError::Kernel(e)))) =
        &system
    else {
        panic!("GATESIM_KERNEL=simd must be a typed build error: {system:?}");
    };
    assert_eq!(e.value(), "simd");
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
    // Synthesis instantiates simulators under the hatch, so it must not
    // race a test that forces a kernel.
    let hw = with_kernel(None, || {
        HwCfsm::synthesize(soc.network.cfsm(p), &config.synth, &config.hw_power)
    })
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
    assert!(oblivious == event, "oblivious per-cycle energy or outputs diverged");
    assert_eq!(oblivious_events, event_events, "oblivious gate_events");
    assert!(
        event_evals < oblivious_evals,
        "event-driven must evaluate strictly fewer gates ({event_evals} vs {oblivious_evals})"
    );
    // No golden sees `gate_evals` (it is kernel-specific): pin the
    // event-driven evaluation set exactly.
    assert_eq!((event_evals, event_events), (423_029, 239_439));
}

#[test]
fn event_driven_gate_counts_are_pinned_on_a_standalone_run() {
    // Through the whole stack: a standalone run simulates every firing.
    let soc = producer_consumer::build(&ProducerConsumerParams::default()).expect("valid params");
    let (_, m) = with_kernel(None, || {
        run_with_metrics(soc, CoSimConfig::date2000_defaults())
    });
    assert_eq!((m.gate_evals, m.gate_events), (462_983, 232_799));

    // The consumer's netlist alone, outside any memo scope: the same
    // firings under the oblivious kernel give the same cycles, energy
    // bits and variables, and the event-driven evaluation set is pinned.
    let (event, event_counts) = consumer_firings(None);
    let (oblivious, _) = consumer_firings(Some("oblivious"));
    assert!(
        event == oblivious,
        "consumer firings diverged across kernels"
    );
    assert_eq!(event_counts, (93_406, 48_067));
}

/// One consumer firing's cycles, energy bits and variables out.
type ConsumerFiring = (u64, u64, Vec<i64>);

/// Runs the largest transition of Fig. 1's consumer (2 795 gates), whose
/// gate-level firings dominate a `fig1_jitter` point, through a fixed
/// sequence of firings under `kernel`: each firing's `TIME` advances by
/// the next step (a zero step runs no loop iteration) and its variables
/// are the previous firing's. Returns every firing, then the
/// transition's `(gate_evals, gate_events)`.
fn consumer_firings(kernel: Option<&str>) -> (Vec<ConsumerFiring>, (u64, u64)) {
    let soc =
        producer_consumer::build(&ProducerConsumerParams::fig1_defaults()).expect("valid params");
    let config = CoSimConfig::date2000_defaults();
    let p = soc
        .network
        .process_by_name("consumer")
        .expect("Fig. 1 has a consumer");
    let time = soc.network.event_by_name("TIME").expect("Fig. 1 has TIME");
    let machine = soc.network.cfsm(p);
    let mut hw = with_kernel(kernel, || {
        HwCfsm::synthesize(machine, &config.synth, &config.hw_power)
    })
    .expect("consumer synthesizes");
    let largest = (0..hw.transition_count() as u32)
        .map(TransitionId)
        .max_by_key(|&t| hw.transition(t).gate_count())
        .expect("at least one transition");
    let transition = hw.transition_mut(largest);
    assert_eq!(transition.gate_count(), 2_795);
    let mut vars: Vec<i64> = machine.vars().iter().map(|(_, v)| *v).collect();
    let mut now = 0;
    let mut firings = Vec::new();
    for step in [11, 10, 1, 0, 13, 9, 10, 2, 24, 10, 11, 10] {
        now += step;
        let run = transition.run(&vars, &|e| if e == time { now } else { 0 }, &[]);
        vars.clone_from(&run.vars_out);
        firings.push((run.cycles, run.energy_j.to_bits(), run.vars_out));
    }
    (firings, transition.gate_stats())
}

/// The lockstep lane simulators' shared surface.
trait Lockstep {
    fn set_input(&mut self, lane: usize, net: NetId, value: bool);
    fn step(&mut self);
    fn report(&self, lane: usize) -> &EnergyReport;
    fn value(&self, net: NetId, lane: usize) -> bool;
    fn toggle_count(&self, net: NetId, lane: usize) -> u64;
    fn demux(&self) -> (Vec<Vec<u64>>, Vec<Vec<bool>>);
    fn gate_events(&self) -> u64;
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
            fn demux(&self) -> (Vec<Vec<u64>>, Vec<Vec<bool>>) {
                <$sim>::demux(self)
            }
            fn gate_events(&self) -> u64 {
                <$sim>::gate_events(self)
            }
        }
    )*};
}

lockstep!(LaneSim, SimdLaneSim);

/// Steps `sim` with one independent seeded stream per lane, then
/// requires every lane to match a scalar event-driven run of its
/// stream: per-cycle energy bits, every net's value and toggle count,
/// read per `(net, lane)` and through the net-major demux, and the
/// summed `gate_events`.
fn assert_lanes_match_scalar_runs(
    name: &str,
    netlist: &Arc<Netlist>,
    sim: &mut impl Lockstep,
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
    let (toggles, values) = sim.demux();
    assert_eq!(
        (toggles.len(), values.len()),
        (lanes, lanes),
        "{name}: demuxed lanes"
    );
    let mut events = 0;
    for (l, stream) in streams.iter().enumerate() {
        let mut reference = scalar(netlist, SimKernel::EventDriven);
        for inputs in stream {
            for &(net, v) in inputs {
                reference.set_input(net, v);
            }
            reference.step();
        }
        events += reference.gate_events();
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
            assert_eq!(
                (toggles[l][i], values[l][i]),
                (reference.toggle_count(net), reference.value(net)),
                "{name} lane {l}: demuxed net {i}"
            );
        }
    }
    assert_eq!(sim.gate_events(), events, "{name}: gate_events");
}

#[test]
fn every_lockstep_lane_matches_a_scalar_run_on_the_checksum_netlist() {
    let netlist = checksum_netlist();
    let power = PowerConfig::date2000_defaults();
    let mut lanes = LaneSim::new(Arc::clone(&netlist), power.clone(), 8).expect("valid netlist");
    assert_lanes_match_scalar_runs("LaneSim", &netlist, &mut lanes, 8, 300, 0xC9EC);
    // Past one `u64` word, so the wide words and their seams are checked.
    let mut wide = SimdLaneSim::new(Arc::clone(&netlist), power, 80).expect("valid netlist");
    assert_lanes_match_scalar_runs("SimdLaneSim", &netlist, &mut wide, 80, 200, 0x51D0);
}

#[test]
fn wide_lane_toggle_counters_spill_exactly_past_255_toggles() {
    // A wide word's eight counter planes hold 255 toggles per lane; the
    // 256th wraps the planes into the per-lane spill, which is
    // allocated at the first wrap. A DFF fed by its own inverter
    // toggles every cycle, so 640 cycles wrap it twice in every lane,
    // and an AND with a random input gives each lane its own count on
    // a third net.
    let mut n = Netlist::new();
    let a = n.input();
    let d = n.wire();
    let q = n.dff(d, false);
    let not_q = n.gate(GateKind::Not, vec![q]);
    n.drive(d, not_q);
    let y = n.gate(GateKind::And, vec![a, q]);
    n.mark_output("y", y);
    let netlist = Arc::new(n);
    let power = PowerConfig::date2000_defaults();
    let mut sim = SimdLaneSim::new(Arc::clone(&netlist), power, 200).expect("valid netlist");
    assert_lanes_match_scalar_runs("SimdLaneSim", &netlist, &mut sim, 200, 640, 0x3A7);
    for lane in 0..200 {
        assert_eq!(sim.toggle_count(q, lane), 640, "lane {lane}: two wraps");
    }
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

#[test]
fn multi_batch_lane_sweeps_equal_the_serial_sweep() {
    // 300 units, stuck-at variants among them: at 256 lanes one W256
    // batch, then a 44-lane u64 batch; at 100 lanes three W128
    // batches; at 150 lanes two W256 batches driven through three of
    // their four words.
    let netlist = checksum_netlist();
    let units = fault_matrix_and_monte_carlo(&netlist, 0xBA7C, 71);
    assert_eq!(units.len(), 300);
    let power = PowerConfig::date2000_defaults();
    let config = LaneSweepConfig {
        cycles: 24,
        toggle_probability: 0.25,
        max_lanes: 256,
    };
    let serial = run_lane_sweep_serial(&netlist, &power, &units, &config).expect("valid netlist");
    for (max_lanes, batches) in [(256, 2), (100, 3), (150, 2)] {
        let config = LaneSweepConfig {
            max_lanes,
            ..config.clone()
        };
        let lanes = run_lane_sweep(&netlist, &power, &units, &config).expect("valid netlist");
        assert_eq!(lanes.batches, batches, "max_lanes {max_lanes}");
        assert!(
            lanes.points == serial.points,
            "max_lanes {max_lanes}: lane sweep points diverged from serial runs"
        );
        assert_eq!(
            lanes.gate_events, serial.gate_events,
            "max_lanes {max_lanes}"
        );
    }
}

/// 64-bit FNV-1a digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The fault matrix of one seed plus a few Monte-Carlo seeds, as the
/// checksum-netlist lane tests sweep them.
fn fault_matrix_and_monte_carlo(netlist: &Netlist, seed: u64, mc: u64) -> Vec<LaneUnit> {
    let mut units = fault_matrix_units(netlist, seed);
    units.extend((0..mc).map(|i| LaneUnit::MonteCarlo {
        seed: seed ^ ((i + 1) << 20),
    }));
    units
}

#[test]
fn the_serial_sweep_stimulus_stream_is_pinned() {
    // Both sweep paths draw their stimulus from one generator, so a
    // generator change that both inherit passes every equivalence test.
    // This digest of the serial sweep (energy bits, toggles and values
    // of every unit, stuck-at variants included) pins the stream itself.
    let netlist = checksum_netlist();
    let units = fault_matrix_and_monte_carlo(&netlist, 0x5714, 4);
    let config = LaneSweepConfig {
        cycles: 40,
        toggle_probability: 0.25,
        max_lanes: 256,
    };
    let power = PowerConfig::date2000_defaults();
    let serial = run_lane_sweep_serial(&netlist, &power, &units, &config).expect("valid netlist");
    let mut bytes = Vec::new();
    for p in &serial.points {
        for e in &p.report.per_cycle_j {
            bytes.extend_from_slice(&e.to_bits().to_le_bytes());
        }
        for t in &p.toggles {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        bytes.extend(p.values.iter().map(|&v| u8::from(v)));
    }
    assert_eq!(units.len(), 233, "114 primary inputs, each stuck both ways");
    assert_eq!(
        fnv1a(&bytes),
        0x4D37_603A_7494_AE56,
        "the stimulus stream moved"
    );
}
