//! Failure-injection and edge-case integration tests: malformed
//! descriptions are rejected with the documented errors, and stressed
//! systems degrade the way POLIS semantics say they should (events are
//! lost to single-place buffers, never deadlocking or corrupting state).

use cfsm::{
    Cfg, Cfsm, EventDef, EventOccurrence, Expr, Implementation, Network, Stmt, VarId,
};
use co_estimation::spec::{parse_system, parse_system_with_power};
use co_estimation::{
    Acceleration, BuildEstimatorError, CoSimConfig, CoSimulator, GatingPolicy, OperatingPoint,
    PowerPolicy, RunOutcome, SocDescription,
};
use desim::WatchdogConfig;
use systems::tcpip;

fn counter_network(mapping: Implementation, body: Cfg) -> (Network, cfsm::EventId) {
    let mut nb = Network::builder();
    let tick = nb.event(EventDef::pure("TICK"));
    let mut b = Cfsm::builder("proc");
    let s = b.state("s");
    b.var("v", 0);
    b.transition(s, vec![tick], None, body, s);
    nb.process(b.finish().expect("valid machine"), mapping);
    (nb.finish().expect("valid network"), tick)
}

#[test]
fn division_in_hw_is_a_build_error_not_a_panic() {
    let body = Cfg::straight_line(vec![Stmt::Assign {
        var: VarId(0),
        expr: Expr::bin(cfsm::BinOp::Div, Expr::Var(VarId(0)), Expr::Const(3)),
    }]);
    let (network, tick) = counter_network(Implementation::Hw, body.clone());
    let soc = SocDescription {
        name: "bad-hw".into(),
        network,
        stimulus: vec![(10, EventOccurrence::pure(tick))],
        priorities: vec![1],
    };
    let err = CoSimulator::new(soc, CoSimConfig::date2000_defaults());
    assert!(matches!(err, Err(BuildEstimatorError::Synth(name, _)) if name == "proc"));

    // The same body is fine in software.
    let (network, tick) = counter_network(Implementation::Sw, body);
    let soc = SocDescription {
        name: "ok-sw".into(),
        network,
        stimulus: vec![(10, EventOccurrence::pure(tick))],
        priorities: vec![1],
    };
    let report = CoSimulator::new(soc, CoSimConfig::date2000_defaults())
        .expect("SW handles division")
        .run();
    assert_eq!(report.firings, 1);
}

#[test]
fn wrong_priority_count_is_rejected() {
    let (network, tick) = counter_network(Implementation::Hw, Cfg::empty());
    let soc = SocDescription {
        name: "bad-prio".into(),
        network,
        stimulus: vec![(10, EventOccurrence::pure(tick))],
        priorities: vec![1, 2, 3],
    };
    let err = CoSimulator::new(soc, CoSimConfig::date2000_defaults());
    assert!(matches!(
        err,
        Err(BuildEstimatorError::PriorityCount {
            expected: 1,
            got: 3
        })
    ));
}

#[test]
fn empty_stimulus_yields_an_empty_but_valid_report() {
    let (network, _) = counter_network(Implementation::Hw, Cfg::empty());
    let soc = SocDescription {
        name: "idle".into(),
        network,
        stimulus: vec![],
        priorities: vec![1],
    };
    let report = CoSimulator::new(soc, CoSimConfig::date2000_defaults())
        .expect("builds")
        .run();
    assert_eq!(report.firings, 0);
    assert_eq!(report.total_energy_j(), 0.0);
    assert_eq!(report.total_cycles, 0);
}

#[test]
fn event_flood_loses_events_but_never_wedges() {
    // A slow SW process bombarded with ticks far faster than it can
    // process: POLIS single-place buffers overwrite, so the run must
    // terminate with fewer firings than stimuli and a quiesced queue.
    let body = Cfg::straight_line(
        (0..20)
            .map(|i| Stmt::Assign {
                var: VarId(0),
                expr: Expr::add(
                    Expr::bin(cfsm::BinOp::Mul, Expr::Var(VarId(0)), Expr::Const(3)),
                    Expr::Const(i),
                ),
            })
            .collect(),
    );
    let (network, tick) = counter_network(Implementation::Sw, body);
    let soc = SocDescription {
        name: "flood".into(),
        network,
        stimulus: (1..=500).map(|i| (i * 2, EventOccurrence::pure(tick))).collect(),
        priorities: vec![1],
    };
    let report = CoSimulator::new(soc, CoSimConfig::date2000_defaults())
        .expect("builds")
        .run();
    assert!(report.firings > 0);
    assert!(
        report.firings < 500,
        "saturated process must drop events ({} firings)",
        report.firings
    );
}

#[test]
fn tcpip_queue_overflow_drops_packets_without_deadlock() {
    // Packets arriving far faster than the pipeline drains: the 4-deep
    // descriptor queue and the single-place buffers shed load; the
    // system must still quiesce and the checksum engine must process a
    // prefix of the packets.
    let soc = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 30,
        len_range: (32, 48),
        pkt_period: 200, // far below the per-packet service time
        seed: 5,
    })
    .expect("valid params");
    let report = CoSimulator::new(soc, CoSimConfig::date2000_defaults())
        .expect("builds")
        .run();
    let checksum = report
        .processes
        .iter()
        .find(|p| p.name == "checksum")
        .expect("checksum");
    assert!(checksum.firings >= 1);
    assert!(
        checksum.firings < 30,
        "overload must shed packets (checksum fired {} times)",
        checksum.firings
    );
}

#[test]
fn max_firings_is_a_hard_stop() {
    let (network, tick) = counter_network(Implementation::Hw, Cfg::empty());
    let soc = SocDescription {
        name: "bounded".into(),
        network,
        stimulus: (1..=100).map(|i| (i * 10, EventOccurrence::pure(tick))).collect(),
        priorities: vec![1],
    };
    let mut cfg = CoSimConfig::date2000_defaults();
    cfg.max_firings = 7;
    let report = CoSimulator::new(soc, cfg).expect("builds").run();
    assert!(report.firings <= 8, "got {}", report.firings);
}

#[test]
fn zero_length_packet_class_is_rejected_by_the_system_builder() {
    let result = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 0,
        len_range: (8, 16),
        pkt_period: 100,
        seed: 0,
    });
    assert!(
        matches!(result, Err(BuildEstimatorError::EmptyWorkload(_))),
        "zero packets must be rejected with a typed error"
    );
}

#[test]
fn out_of_range_datapath_widths_are_typed_build_errors() {
    // `SynthConfig::width` is a public field, so a struct literal skips
    // the check in `SynthConfig::with_width`; the master rejects the
    // width before building any estimator or cost table, with or
    // without the macro-model (which characterizes a hardware table).
    let soc = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 2,
        len_range: (8, 12),
        pkt_period: 5_000,
        seed: 3,
    })
    .expect("valid params");
    for accel in [Acceleration::none(), Acceleration::macromodel()] {
        let config = |width| {
            let mut cfg = CoSimConfig::date2000_defaults().with_accel(accel.clone());
            cfg.synth = gatesim::SynthConfig { width };
            cfg
        };
        for width in [0, 64, 65] {
            let err = CoSimulator::new(soc.clone(), config(width));
            assert!(
                matches!(&err, Err(BuildEstimatorError::InvalidParams(msg)) if msg.contains("width")),
                "{accel:?}, width {width}: {err:?}"
            );
        }
        for width in [16, 63] {
            CoSimulator::new(soc.clone(), config(width))
                .unwrap_or_else(|e| panic!("{accel:?}, width {width}: {e}"));
        }
    }
}

#[test]
fn cache_disabled_runs_still_work() {
    let mut cfg = CoSimConfig::date2000_defaults();
    cfg.icache = None;
    let soc = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 3,
        len_range: (8, 16),
        pkt_period: 5_000,
        seed: 2,
    })
    .expect("valid params");
    let report = CoSimulator::new(soc, cfg).expect("builds").run();
    assert_eq!(report.cache.accesses, 0);
    assert_eq!(report.cache_energy_j, 0.0);
    assert!(report.total_energy_j() > 0.0);
}

#[test]
fn watchdog_budget_boundary_separates_completed_from_degraded() {
    // The desim::watchdog boundary contract, observed end to end: a
    // cycle budget equal to the exact simulated length of a run keeps it
    // `Completed`; one cycle less and the final firing-completion event
    // dispatches past the budget, degrading the run before it is
    // handled.
    let build = || {
        let body = Cfg::straight_line(vec![Stmt::Assign {
            var: VarId(0),
            expr: Expr::add(Expr::Var(VarId(0)), Expr::Const(1)),
        }]);
        let (network, tick) = counter_network(Implementation::Hw, body);
        SocDescription {
            name: "boundary".into(),
            network,
            stimulus: (1..=4).map(|i| (i * 50, EventOccurrence::pure(tick))).collect(),
            priorities: vec![1],
        }
    };

    let unguarded = CoSimulator::new(build(), CoSimConfig::date2000_defaults())
        .expect("builds")
        .run();
    assert!(matches!(unguarded.outcome, RunOutcome::Completed));
    let exact = unguarded.total_cycles;
    assert!(exact > 0, "run must simulate some time");

    let at_budget = CoSimulator::new(
        build(),
        CoSimConfig::date2000_defaults().with_watchdog(WatchdogConfig::sim_cycles(exact)),
    )
    .expect("builds")
    .run();
    assert!(
        matches!(at_budget.outcome, RunOutcome::Completed),
        "budget == exact cycles must complete, got {:?}",
        at_budget.outcome
    );
    assert_eq!(at_budget.total_cycles, exact, "guarded run is bit-identical");
    assert_eq!(at_budget.firings, unguarded.firings);

    let one_short = CoSimulator::new(
        build(),
        CoSimConfig::date2000_defaults().with_watchdog(WatchdogConfig::sim_cycles(exact - 1)),
    )
    .expect("builds")
    .run();
    assert!(
        one_short.outcome.is_degraded(),
        "budget one cycle short must degrade, got {:?}",
        one_short.outcome
    );
}

#[test]
fn out_of_range_dvfs_scales_are_typed_build_errors() {
    // A frequency scale near zero stretches a firing past `u64::MAX`
    // cycles, and a huge voltage scale makes the energy infinite: both
    // must be rejected before the run, whether the operating point comes
    // from the API or from a spec's `power dvfs` line.
    let soc = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 4,
        ..tcpip::TcpIpParams::fig7_defaults()
    })
    .expect("valid params");
    let with_point = |v, f| {
        CoSimConfig::date2000_defaults().with_power_policy(
            PowerPolicy::named("dvfs")
                .with_operating_point(OperatingPoint::new("low", v, f))
                .dvfs("create_pack", 0),
        )
    };
    let rejected = |err: Result<CoSimulator, BuildEstimatorError>, what: &str| {
        assert!(
            matches!(&err, Err(BuildEstimatorError::InvalidParams(msg)) if msg.contains("scale")),
            "{what}: {:?}",
            err.map(|_| "built")
        );
    };
    let (min, max) = (OperatingPoint::MIN_SCALE, OperatingPoint::MAX_SCALE);
    for (v, f) in [
        (0.8, 1e-300),
        (1e200, 0.5),
        (1e308, 0.7),
        (0.8, 0.0),
        (0.8, f64::NAN),
        (min * 0.99, 0.5),
        (0.8, max * 1.01),
    ] {
        rejected(
            CoSimulator::new(soc.clone(), with_point(v, f)),
            &format!("api ({v:?}, {f:?})"),
        );
    }
    for (v, f) in [(min, min), (max, max)] {
        CoSimulator::new(soc.clone(), with_point(v, f))
            .unwrap_or_else(|e| panic!("the range is inclusive, ({v:?}, {f:?}): {e}"));
    }
    let report = CoSimulator::new(soc, with_point(0.8, 0.5))
        .expect("an in-range point builds")
        .run();
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert!(report.total_energy_j().is_finite() && report.total_energy_j() > 0.0);

    let spec = |scales: &str| {
        format!(
            "system dvfs\nevent GO\nprocess worker sw priority 1\n  var n = 0\n  state s\n  \
             power dvfs low {scales}\n  transition s -> s on GO\n    n = (+ n 1)\n  end\n\
             stimulus 10 GO\n"
        )
    };
    for scales in ["0.8 1e-300", "1e308 0.7"] {
        let (soc, policy) = parse_system_with_power(&spec(scales)).expect("the grammar accepts it");
        let config = CoSimConfig::date2000_defaults().with_power_policy(policy);
        rejected(
            CoSimulator::new(soc, config),
            &format!("spec `power dvfs low {scales}`"),
        );
    }
    let (soc, policy) = parse_system_with_power(&spec("0.8 0.5")).expect("parses");
    let config = CoSimConfig::date2000_defaults().with_power_policy(policy);
    let report = CoSimulator::new(soc, config)
        .expect("an in-range point builds")
        .run();
    assert_eq!(report.firings, 1);
    assert!(report.total_energy_j().is_finite());
}

#[test]
fn wake_energies_past_the_bound_are_typed_build_errors() {
    // Each wake of a power gate charges its wake energy, so a huge one
    // summed over a run's wakes made a `Completed` report's total
    // infinite. It must be rejected before the run, whether the gate
    // comes from the API or from a spec's `power power_gate` line.
    let soc = tcpip::build(&tcpip::TcpIpParams {
        num_packets: 4,
        ..tcpip::TcpIpParams::fig7_defaults()
    })
    .expect("valid params");
    let config = |policy| CoSimConfig::date2000_defaults().with_power_policy(policy);
    let rejected = |err: Result<CoSimulator, BuildEstimatorError>, what: &str| {
        assert!(
            matches!(&err, Err(BuildEstimatorError::InvalidParams(m)) if m.contains("wake energy")),
            "{what}: {:?}",
            err.map(|_| "built")
        );
    };
    let max = GatingPolicy::MAX_WAKE_ENERGY_J;
    for wake_j in [1e308, 1e300, max * 1.01, f64::INFINITY, -1e-9, f64::NAN] {
        let gate = GatingPolicy::power(100, wake_j, 15);
        let policy = PowerPolicy::named("gate").gate("ip_check", gate);
        rejected(
            CoSimulator::new(soc.clone(), config(policy)),
            &format!("api {wake_j:?}"),
        );
    }
    let spec = |wake_j: f64| {
        format!(
            "system gate\nevent GO\nprocess worker hw priority 1\n  var n = 0\n  state s\n  \
             power power_gate 1000 {wake_j:e} 15\n  transition s -> s on GO\n    n = (+ n 1)\n  \
             end\nstimulus 10 GO\nstimulus 5000 GO\n"
        )
    };
    for wake_j in [1e308, 1e300] {
        let (soc, policy) = parse_system_with_power(&spec(wake_j)).expect("the grammar accepts it");
        rejected(
            CoSimulator::new(soc, config(policy)),
            &format!("spec wake energy {wake_j:e}"),
        );
    }
    // The bound is inclusive: a run at it wakes and stays finite.
    let (soc, policy) = parse_system_with_power(&spec(max)).expect("parses");
    let report = CoSimulator::new(soc, config(policy))
        .expect("the bound is inclusive")
        .run();
    assert_eq!(report.outcome, RunOutcome::Completed);
    let power = report.power.as_ref().expect("a managed run reports power");
    assert!(
        power.components.iter().any(|c| c.wakes > 0),
        "the gate never woke"
    );
    assert!(report.total_energy_j().is_finite());
}

#[test]
fn wake_latencies_past_the_bound_are_typed_build_errors() {
    // A power gate's wake latency stretches the run, and the leakage
    // settled across it is deposited into the ledger's waveform, one
    // bucket per 1 000 cycles: a spec's `i64::MAX` latency asked for
    // some 7e16 bytes there and aborted the process. It must be
    // rejected in `new`, before the run, from the API or from a spec.
    let spec = |latency: u64| {
        format!(
            "system gate\nevent GO\nprocess worker hw priority 1\n  var n = 0\n  state s\n  \
             power power_gate 1000 0.00000002 {latency}\n  transition s -> s on GO\n    \
             n = (+ n 1)\n  end\nstimulus 10 GO\nstimulus 5000 GO\n"
        )
    };
    let config = |policy| CoSimConfig::date2000_defaults().with_power_policy(policy);
    let rejected = |err: Result<CoSimulator, BuildEstimatorError>, what: &str| {
        assert!(
            matches!(&err, Err(BuildEstimatorError::InvalidParams(m)) if m.contains("wake latency")),
            "{what}: {:?}",
            err.map(|_| "built")
        );
    };
    let max = GatingPolicy::MAX_WAKE_LATENCY_CYCLES;
    let (soc, policy) = parse_system_with_power(&spec(max)).expect("parses");
    for latency in [max + 1, i64::MAX as u64, u64::MAX] {
        let gate = GatingPolicy::power(1000, 2e-8, latency);
        let api = PowerPolicy::named("gate").gate("worker", gate);
        rejected(
            CoSimulator::new(soc.clone(), config(api)),
            &format!("api {latency}"),
        );
        let (soc, policy) =
            parse_system_with_power(&spec(latency)).expect("the grammar accepts it");
        rejected(
            CoSimulator::new(soc, config(policy)),
            &format!("spec {latency}"),
        );
    }
    // The bound is inclusive: a run at it wakes once, waits out the
    // whole latency and stays finite.
    let report = CoSimulator::new(soc, config(policy))
        .expect("the bound is inclusive")
        .run();
    assert_eq!(report.outcome, RunOutcome::Completed);
    let power = report.power.as_ref().expect("a managed run reports power");
    assert!(
        power.components.iter().any(|c| c.wakes > 0),
        "the gate never woke"
    );
    assert!(
        report.total_cycles >= 5_000 + max,
        "{} cycles",
        report.total_cycles
    );
    assert!(report.total_energy_j().is_finite());
}

#[test]
fn stimulus_cycles_past_the_bound_are_typed_errors() {
    // A stimulus near `u64::MAX` would overflow its firing's end cycle
    // (and, for a software process, its i-cache charge), so it must be
    // rejected before the run: on its spec line by the parser, and in
    // `new` for a description built through the API or jittered by a
    // stimulus sweep.
    let spec = |mapping: &str, cycle: u64| {
        format!(
            "system late\nevent GO\nprocess worker {mapping} priority 1\n  var n = 0\n  \
             state s\n  transition s -> s on GO\n    n = (+ n 1)\n  end\nstimulus 10 GO\n\
             stimulus {cycle} GO\n"
        )
    };
    let max = SocDescription::MAX_STIMULUS_CYCLE;
    for mapping in ["hw", "sw"] {
        // Built at the bound, never run there: the ledger's waveform is
        // dense from cycle 0, so such a run would exhaust memory.
        let soc = parse_system(&spec(mapping, max)).expect("the bound is inclusive");
        assert!(CoSimulator::new(soc.clone(), CoSimConfig::date2000_defaults()).is_ok());
        for cycle in [max + 1, u64::MAX] {
            let err = parse_system(&spec(mapping, cycle)).expect_err("past the bound");
            assert_eq!(err.line, 10, "{mapping} {cycle}: {err}");
            assert!(err.message.contains("stimulus cycle"), "{err}");
            let mut api = soc.clone();
            api.stimulus[1].0 = cycle;
            let built = CoSimulator::new(api, CoSimConfig::date2000_defaults());
            assert!(
                matches!(&built, Err(BuildEstimatorError::InvalidParams(m)) if m.contains("stimulus")),
                "{mapping} {cycle}: {:?}",
                built.map(|_| "built")
            );
        }
    }
}

#[test]
fn a_zero_waveform_bucket_is_a_typed_build_error() {
    // The ledger bins energy into waveform buckets of this many cycles,
    // so zero has no meaning; `new` rejects it before building the
    // ledger.
    let (network, tick) = counter_network(Implementation::Hw, Cfg::straight_line(Vec::new()));
    let soc = SocDescription {
        name: "bucket".into(),
        network,
        stimulus: vec![(0, EventOccurrence::pure(tick))],
        priorities: vec![1],
    };
    let mut config = CoSimConfig::date2000_defaults();
    config.waveform_bucket_cycles = 0;
    let built = CoSimulator::new(soc.clone(), config.clone());
    assert!(
        matches!(&built, Err(BuildEstimatorError::InvalidParams(m)) if m.contains("waveform")),
        "{:?}",
        built.map(|_| "built")
    );
    config.waveform_bucket_cycles = 1;
    assert!(CoSimulator::new(soc, config).is_ok());
}
