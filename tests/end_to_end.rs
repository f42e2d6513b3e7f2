//! Cross-crate integration tests: every example system through the full
//! co-estimation pipeline (behavioral model + gate-level HW + ISS SW +
//! bus + cache), under every acceleration technique.

mod corpus;

use cfsm::{Implementation, ProcId};
use co_estimation::{
    Acceleration, CachingConfig, CoSimConfig, CoSimReport, CoSimulator, RtosPolicy, SamplingConfig,
    SocDescription,
};
use soctrace::{MemorySink, SharedSink, TraceRecord};
use systems::{automotive, producer_consumer, tcpip};

fn small_pc() -> SocDescription {
    producer_consumer::build(&producer_consumer::ProducerConsumerParams {
        num_pkts: 5,
        pkt_bytes: 24,
        start_period: 600,
        tick_period: 150,
        num_starts: 25,
    })
    .expect("valid params")
}

fn small_tcpip() -> SocDescription {
    tcpip::build(&tcpip::TcpIpParams {
        num_packets: 8,
        len_range: (8, 24),
        pkt_period: 4_000,
        seed: 11,
    })
    .expect("valid params")
}

fn small_auto() -> SocDescription {
    automotive::build(&automotive::AutomotiveParams {
        num_samples: 6,
        sample_period: 1_500,
        pulse_period: 200,
        target_speed: 25,
    })
    .expect("valid params")
}

fn run(soc: SocDescription, accel: Acceleration) -> CoSimReport {
    let config = CoSimConfig::date2000_defaults().with_accel(accel);
    CoSimulator::new(soc, config).expect("system builds").run()
}

#[test]
fn every_system_co_estimates_under_every_acceleration() {
    for build in [small_pc, small_tcpip, small_auto] {
        let baseline = run(build(), Acceleration::none());
        assert!(baseline.total_energy_j() > 0.0);
        assert!(baseline.firings > 0);
        assert!(baseline.total_cycles > 0);
        for accel in [
            Acceleration::caching(CachingConfig::new()),
            Acceleration::macromodel(),
            Acceleration::sampling(SamplingConfig { period: 4 }),
        ] {
            let r = run(build(), accel);
            assert_eq!(
                r.firings, baseline.firings,
                "acceleration must not change the functional behavior of {}",
                baseline.system
            );
            assert!(r.total_energy_j() > 0.0);
        }
    }
}

#[test]
fn acceleration_never_changes_functional_state() {
    // The consumer's accumulated variable must be identical whatever
    // estimator priced the firings — acceleration affects cost models,
    // not behavior. We proxy via the deterministic per-process firing
    // counts and bus word counts.
    let base = run(small_tcpip(), Acceleration::none());
    let cached = run(small_tcpip(), Acceleration::caching(CachingConfig::aggressive()));
    for (b, c) in base.processes.iter().zip(&cached.processes) {
        assert_eq!(b.firings, c.firings, "{}", b.name);
    }
    assert_eq!(base.bus.words, cached.bus.words);
}

#[test]
fn co_estimation_is_bit_reproducible() {
    for build in [small_pc, small_tcpip, small_auto] {
        let a = run(build(), Acceleration::none());
        let b = run(build(), Acceleration::none());
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
        assert_eq!(a.bus.toggles, b.bus.toggles);
        assert_eq!(a.cache.misses, b.cache.misses);
    }
}

#[test]
fn caching_is_exact_for_sparclite_systems() {
    let base = run(small_tcpip(), Acceleration::none());
    let cached = run(
        small_tcpip(),
        Acceleration::caching(CachingConfig {
            thresh_variance: 0.25,
            thresh_iss_calls: 2,
            keep_samples: false,
        }),
    );
    let rel = (cached.total_energy_j() - base.total_energy_j()).abs() / base.total_energy_j();
    assert!(rel < 5e-3, "caching error {rel}");
    assert!(cached.detailed_calls < base.detailed_calls);
}

#[test]
fn macromodel_is_conservative_on_every_system() {
    for build in [small_pc, small_tcpip, small_auto] {
        let base = run(build(), Acceleration::none());
        let mm = run(build(), Acceleration::macromodel());
        // Component-level energy must be over-estimated in aggregate
        // (bus and cache contributions are computed identically).
        let base_comp: f64 = base.processes.iter().map(|p| p.energy_j).sum();
        let mm_comp: f64 = mm.processes.iter().map(|p| p.energy_j).sum();
        assert!(
            mm_comp > base_comp,
            "{}: macromodel {mm_comp:.3e} vs detailed {base_comp:.3e}",
            base.system
        );
        assert_eq!(mm.detailed_calls, 0);
    }
}

#[test]
fn dma_size_sweeps_shape_energy_and_bus_stats() {
    let config = CoSimConfig::date2000_defaults();
    let mut energies = Vec::new();
    let mut blocks = Vec::new();
    for dma in [2u32, 8, 32] {
        let r = CoSimulator::new(small_tcpip(), config.with_dma_block_size(dma))
            .expect("builds")
            .run();
        energies.push(r.total_energy_j());
        blocks.push(r.bus.blocks);
    }
    assert!(energies[0] > energies[2], "small DMA costs more energy");
    assert!(blocks[0] > blocks[1] && blocks[1] > blocks[2], "fewer blocks at larger DMA");
}

#[test]
fn separate_estimation_diverges_only_for_timing_sensitive_components() {
    let soc = small_pc();
    let config = CoSimConfig::date2000_defaults();
    let sep = co_estimation::estimate_separately(&soc, &config).expect("separate");
    let co = CoSimulator::new(soc, config).expect("builds").run();
    // Producer: timing-insensitive traces → equal energy.
    let prod_rel = (sep.process_energy_j("producer") - co.process_energy_j("producer")).abs()
        / co.process_energy_j("producer");
    assert!(prod_rel < 0.02, "producer relative gap {prod_rel}");
    // Consumer: loop bounds depend on arrival times → under-estimated.
    assert!(
        sep.process_energy_j("consumer") < 0.8 * co.process_energy_j("consumer"),
        "separate {} vs co-est {}",
        sep.process_energy_j("consumer"),
        co.process_energy_j("consumer")
    );
}

#[test]
fn waveforms_account_for_all_energy() {
    let r = run(small_auto(), Acceleration::none());
    let sys = r.account.system_waveform();
    let waveform_total: f64 = sys.energy_per_bucket_j().iter().sum();
    assert!(
        (waveform_total - r.total_energy_j()).abs() < 1e-9 * r.total_energy_j(),
        "waveform {} vs ledger {}",
        waveform_total,
        r.total_energy_j()
    );
    assert!(sys.peak().is_some());
}

#[test]
fn report_lookup_and_power_helpers() {
    let r = run(small_auto(), Acceleration::none());
    let total: f64 = r.processes.iter().map(|p| p.energy_j).sum::<f64>()
        + r.bus_energy_j
        + r.cache_energy_j;
    assert!((r.total_energy_j() - total).abs() < 1e-18);
    assert!(r.average_power_w(25e6) > 0.0);
}

/// Two software tasks woken by the same event, each storing a block of
/// words to shared memory: the second may run only once the first's
/// last bus block has landed. A hardware task with the higher bus
/// priority stores more words at the same time, so the first task's
/// blocks wait for the bus past its execution window.
fn cpu_share() -> SocDescription {
    let writer = |name: &str, map: &str, priority: u8, words: u32, base: u32| {
        format!(
            "process {name} {map} priority {priority}\n  var i = 0\n  state s\n  \
             transition s -> s on GO\n    i = 0\n    while (< i {words})\n      \
             mem[(+ i {base})] = i\n      i = (+ i 1)\n    end\n  end\n"
        )
    };
    let spec = format!(
        "system cpu_share\nevent GO\n{}{}{}stimulus 10 GO\nstimulus 40 GO\nstimulus 5000 GO\n",
        writer("hog", "hw", 3, 96, 200),
        writer("writer_a", "sw", 2, 24, 0),
        writer("writer_b", "sw", 1, 24, 100),
    );
    co_estimation::spec::parse_system(&spec).expect("spec parses")
}

/// Each software firing's CPU window `(start, end)`, in trace order. A
/// software firing holds the CPU from its start for its execution window
/// (`FiringEnd.at + cycles`, plus the stall cycles of its I-cache batch)
/// and, when it moves data, until its last bus block lands, where the
/// bus-wait idle charge to its component ends (the ledger numbers each
/// process's component by its process index, below the bus and cache).
fn cpu_windows(
    records: &[TraceRecord],
    is_sw: impl Fn(u32) -> bool,
    procs: u32,
) -> Vec<(u64, u64)> {
    let mut windows: Vec<(u64, u64)> = Vec::new();
    // Each process's latest window.
    let mut latest = vec![usize::MAX; procs as usize];
    for rec in records {
        match *rec {
            TraceRecord::FiringStart { at, process, .. } if is_sw(process) => {
                latest[process as usize] = windows.len();
                windows.push((at, at));
            }
            TraceRecord::FiringEnd {
                at,
                process,
                cycles,
                ..
            } if is_sw(process) => {
                windows[latest[process as usize]].1 = at + cycles;
            }
            TraceRecord::IcacheBatch {
                process,
                stall_cycles,
                ..
            } if is_sw(process) => {
                windows[latest[process as usize]].1 += stall_cycles;
            }
            TraceRecord::EnergySample {
                component,
                start,
                end,
                ..
            } if component < procs && is_sw(component) => {
                let window = &mut windows[latest[component as usize]];
                if window.1 == start {
                    window.1 = end;
                }
            }
            _ => {}
        }
    }
    windows
}

#[test]
fn software_firings_never_share_the_cpu() {
    // The master's RTOS model runs one software task at a time on the
    // shared CPU, under either policy: in trace order, no software
    // firing may start before the previous one has released the CPU.
    let accels = [
        Acceleration::none(),
        Acceleration::caching(CachingConfig::new()),
        Acceleration::macromodel(),
        Acceleration::sampling(SamplingConfig { period: 4 }),
    ];
    let generated = corpus::live_hw_systems();
    let floor = 500 + 16 * generated.len();
    let systems = [cpu_share(), small_pc(), small_tcpip(), small_auto()]
        .into_iter()
        .chain(generated);
    let mut checked = 0;
    for soc in systems {
        let is_sw = |p: u32| soc.network.mapping(ProcId(p)) == Implementation::Sw;
        let procs = soc.network.process_count() as u32;
        for policy in [RtosPolicy::FixedPriority, RtosPolicy::Fifo] {
            for accel in &accels {
                let mut config = CoSimConfig::date2000_defaults().with_accel(accel.clone());
                config.rtos_policy = policy;
                let sink = SharedSink::new(MemorySink::new());
                let mut sim = CoSimulator::new(soc.clone(), config).expect("system builds");
                sim.attach_trace(Box::new(sink.clone()));
                sim.run();
                let windows = sink.with(|m| cpu_windows(&m.records, is_sw, procs));
                for pair in windows.windows(2) {
                    assert!(
                        pair[1].0 >= pair[0].1,
                        "{} ({policy:?}, {accel:?}): a software firing started at {}, \
                         before the previous one released the CPU at {}",
                        soc.name,
                        pair[1].0,
                        pair[0].1
                    );
                }
                checked += windows.len();
            }
        }
    }
    // The reference systems fire 552 software firings over their 24
    // runs, cpu_share more; the generated ones average more than two
    // per run.
    assert!(
        checked >= floor,
        "only {checked} software firings checked, want {floor}"
    );
}
