use super::*;
use crate::caching::CachingConfig;
use crate::config::Acceleration;
use crate::snapshot_diff;
use cfsm::{Cfg, Cfsm, EventDef, Expr, Network, Stmt};
use soctrace::{MemorySink, MetricsSink, SharedSink};

/// A two-process system: a SW producer that reacts to GO by emitting
/// DATA(v), and an HW consumer that accumulates DATA values.
fn two_proc_soc(n_stimuli: u64) -> SocDescription {
    let mut nb = Network::builder();
    let go = nb.event(EventDef::pure("GO"));
    let data = nb.event(EventDef::valued("DATA"));

    let mut prod = Cfsm::builder("producer");
    let s = prod.state("s");
    let v = prod.var("v", 0);
    prod.transition(
        s,
        vec![go],
        None,
        Cfg::straight_line(vec![
            Stmt::Assign {
                var: v,
                expr: Expr::add(Expr::Var(v), Expr::Const(3)),
            },
            Stmt::Emit {
                event: data,
                value: Some(Expr::Var(v)),
            },
        ]),
        s,
    );
    nb.process(prod.finish().expect("valid"), Implementation::Sw);

    let mut cons = Cfsm::builder("consumer");
    let c = cons.state("c");
    let acc = cons.var("acc", 0);
    cons.transition(
        c,
        vec![data],
        None,
        Cfg::straight_line(vec![Stmt::Assign {
            var: acc,
            expr: Expr::add(Expr::Var(acc), Expr::EventValue(data)),
        }]),
        c,
    );
    nb.process(cons.finish().expect("valid"), Implementation::Hw);

    let network = nb.finish().expect("valid network");
    let stimulus = (0..n_stimuli)
        .map(|i| (i * 10_000, EventOccurrence::pure(go)))
        .collect();
    SocDescription {
        name: "two-proc".into(),
        network,
        stimulus,
        priorities: vec![1, 1],
    }
}

fn run_with(accel: Acceleration, n: u64) -> CoSimReport {
    let cfg = CoSimConfig::date2000_defaults().with_accel(accel);
    let mut sim = CoSimulator::new(two_proc_soc(n), cfg).expect("builds");
    sim.run()
}

#[test]
fn baseline_run_produces_energy_and_time() {
    let r = run_with(Acceleration::none(), 5);
    assert_eq!(r.firings, 10, "5 producer + 5 consumer firings");
    assert!(r.total_energy_j() > 0.0);
    assert!(r.total_cycles > 0);
    assert!(r.process_energy_j("producer") > 0.0);
    assert!(r.process_energy_j("consumer") > 0.0);
    assert_eq!(r.detailed_calls, 10);
    assert_eq!(r.accelerated_calls, 0);
    assert!(r.cache.accesses > 0, "SW fetches hit the icache");
}

#[test]
fn consumer_accumulates_all_values() {
    let cfg = CoSimConfig::date2000_defaults();
    let soc = two_proc_soc(4);
    let consumer = soc.network.process_by_name("consumer").expect("exists");
    let mut sim = CoSimulator::new(soc, cfg).expect("builds");
    let _ = sim.run();
    // 3 + 6 + 9 + 12 = 30.
    assert_eq!(sim.state.runtime(consumer).vars()[0], 30);
}

#[test]
fn caching_reduces_detailed_calls_without_changing_energy() {
    let base = run_with(Acceleration::none(), 20);
    let cached = run_with(
        Acceleration::caching(CachingConfig {
            thresh_variance: 0.05,
            thresh_iss_calls: 2,
            keep_samples: false,
        }),
        20,
    );
    assert!(cached.detailed_calls < base.detailed_calls);
    assert!(cached.accelerated_calls > 0);
    // SPARClite power model + repeatable HW runs → identical totals
    // within float tolerance.
    let rel = (cached.total_energy_j() - base.total_energy_j()).abs()
        / base.total_energy_j();
    assert!(rel < 0.01, "caching error {rel} too large");
}

#[test]
fn macromodel_overestimates_but_is_fast() {
    let base = run_with(Acceleration::none(), 10);
    let mm = run_with(Acceleration::macromodel(), 10);
    assert_eq!(mm.detailed_calls, 0, "macro-model never calls simulators");
    assert_eq!(mm.accelerated_calls, mm.firings);
    // Conservative: the additive model over-estimates.
    assert!(
        mm.process_energy_j("producer") > base.process_energy_j("producer"),
        "macromodel should over-estimate SW energy"
    );
}

#[test]
fn sampling_reuses_previous_costs() {
    let sampled = run_with(
        Acceleration::sampling(crate::SamplingConfig { period: 4 }),
        16,
    );
    assert!(sampled.accelerated_calls > 0);
    assert!(sampled.detailed_calls < sampled.firings);
}

#[test]
fn runs_are_deterministic() {
    let a = run_with(Acceleration::none(), 8);
    let b = run_with(Acceleration::none(), 8);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
}

#[test]
fn bus_unused_when_no_shared_memory() {
    let r = run_with(Acceleration::none(), 3);
    assert_eq!(r.bus.words, 0);
    assert_eq!(r.bus_energy_j, 0.0);
}

#[test]
fn waveforms_cover_run() {
    let r = run_with(Acceleration::none(), 5);
    let sys = r.account.system_waveform();
    assert!(!sys.energy_per_bucket_j().is_empty());
    let sum: f64 = sys.energy_per_bucket_j().iter().sum();
    assert!((sum - r.total_energy_j()).abs() < 1e-9 * r.total_energy_j());
}

#[test]
fn rtos_policy_changes_sw_dispatch_order() {
    // Two SW tasks both enabled by the same stimulus: under
    // FixedPriority the high-priority one runs first; under Fifo the
    // lower process id wins.
    fn two_sw_soc() -> SocDescription {
        let mut nb = cfsm::Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let a_done = nb.event(EventDef::pure("A_DONE"));
        let b_done = nb.event(EventDef::pure("B_DONE"));
        for (name, done) in [("a", a_done), ("b", b_done)] {
            let mut mb = Cfsm::builder(name);
            let s = mb.state("s");
            mb.transition(
                s,
                vec![go],
                None,
                Cfg::straight_line(vec![Stmt::Emit {
                    event: done,
                    value: None,
                }]),
                s,
            );
            nb.process(mb.finish().expect("valid"), Implementation::Sw);
        }
        SocDescription {
            name: "two-sw".into(),
            network: nb.finish().expect("valid"),
            stimulus: vec![(100, EventOccurrence::pure(go))],
            priorities: vec![1, 9], // `b` outranks `a`
        }
    }
    let first_busy = |policy: crate::RtosPolicy| {
        let mut cfg = CoSimConfig::date2000_defaults();
        cfg.rtos_policy = policy;
        cfg.waveform_bucket_cycles = 8; // resolve the two CPU slots
        let mut sim = CoSimulator::new(two_sw_soc(), cfg).expect("builds");
        let r = sim.run();
        // The task dispatched first finishes first; with identical
        // bodies, the one with the *earlier* completion window is the
        // one whose waveform bucket charge starts first. Use busy
        // windows via the account: both have equal busy_cycles, so
        // compare who fired in the earlier CPU slot by peak position.
        let a = r.account.waveform(crate::ComponentId(0)).peak().expect("a ran");
        let b = r.account.waveform(crate::ComponentId(1)).peak().expect("b ran");
        (a.0, b.0)
    };
    let (a_pri, b_pri) = first_busy(crate::RtosPolicy::FixedPriority);
    let (a_fifo, b_fifo) = first_busy(crate::RtosPolicy::Fifo);
    assert!(b_pri < a_pri, "priority: b (pri 9) runs first ({b_pri} vs {a_pri})");
    assert!(a_fifo < b_fifo, "fifo: a (lower id) runs first ({a_fifo} vs {b_fifo})");
}

#[test]
fn max_firings_bounds_run() {
    let mut cfg = CoSimConfig::date2000_defaults();
    cfg.max_firings = 4;
    let mut sim = CoSimulator::new(two_proc_soc(100), cfg).expect("builds");
    let r = sim.run();
    assert!(r.firings <= 5, "bounded by max_firings");
    assert!(r.outcome.is_degraded(), "cut short with work pending");
    // With no firing allowed, the undelivered stimulus is the only
    // pending work, and it still counts.
    let cfg = CoSimConfig {
        max_firings: 0,
        ..CoSimConfig::date2000_defaults()
    };
    let r = CoSimulator::new(two_proc_soc(1), cfg).expect("builds").run();
    assert_eq!(r.firings, 0);
    assert!(r.outcome.is_degraded(), "stimulus left undelivered");
}

#[test]
fn quiescent_run_completes_with_empty_ledger_overhead() {
    let r = run_with(Acceleration::none(), 5);
    assert_eq!(r.outcome, RunOutcome::Completed);
    assert_eq!(r.anomalies.faults_injected(), 0);
}

#[test]
fn wrong_priority_count_is_a_typed_error() {
    let mut soc = two_proc_soc(1);
    soc.priorities = vec![1, 2, 3];
    let err = CoSimulator::new(soc, CoSimConfig::date2000_defaults());
    assert!(matches!(
        err,
        Err(BuildEstimatorError::PriorityCount { expected: 2, got: 3 })
    ));
}

#[test]
fn unknown_fault_target_is_a_typed_error() {
    let cfg = CoSimConfig::date2000_defaults()
        .with_faults(crate::FaultPlan::new().freeze_process(0, "no_such_process", 10));
    let err = CoSimulator::new(two_proc_soc(1), cfg);
    assert!(matches!(err, Err(BuildEstimatorError::InvalidParams(_))));
}

#[test]
fn watchdog_cycle_budget_degrades_run() {
    // Stimulus reaches cycle 990_000; cap simulated time well before.
    let cfg = CoSimConfig::date2000_defaults().with_watchdog(desim::WatchdogConfig {
        max_cycles: Some(50_000),
        ..desim::WatchdogConfig::default()
    });
    let mut sim = CoSimulator::new(two_proc_soc(100), cfg).expect("builds");
    let r = sim.run();
    assert!(r.outcome.is_degraded(), "{:?}", r.outcome);
    assert!(r.total_cycles <= 60_000, "partial report stops near the budget");
    assert!(r.total_energy_j() > 0.0, "partial energy is still accounted");
    assert!(
        r.anomalies.iter().any(|a| matches!(a.kind, AnomalyKind::WatchdogTrip { .. })),
        "trip recorded in the ledger"
    );
}

#[test]
fn empty_fault_plan_is_bit_for_bit_free() {
    let base = run_with(Acceleration::none(), 8);
    let cfg = CoSimConfig::date2000_defaults()
        .with_faults(crate::FaultPlan::none())
        .with_watchdog(desim::WatchdogConfig::unlimited());
    let mut sim = CoSimulator::new(two_proc_soc(8), cfg).expect("builds");
    let r = sim.run();
    assert_eq!(r.total_energy_j().to_bits(), base.total_energy_j().to_bits());
    assert_eq!(r.total_cycles, base.total_cycles);
    assert_eq!(r.firings, base.firings);
    assert_eq!(r.outcome, base.outcome);
}

#[test]
fn pipeline_reflects_configured_acceleration() {
    // Every configured technique is listed in cascade order, zeros
    // included; an unaccelerated run lists none.
    let r = run_with(
        Acceleration {
            macromodel: true,
            caching: Some(CachingConfig::new()),
            sampling: Some(crate::SamplingConfig { period: 4 }),
        },
        1,
    );
    assert_eq!(
        r.effectiveness.answered_by_layer,
        vec![
            ("macromodel".to_string(), r.firings),
            ("cache".to_string(), 0),
            ("sampling".to_string(), 0),
        ]
    );
    let bare = run_with(Acceleration::none(), 1);
    assert!(bare.effectiveness.answered_by_layer.is_empty());
}

#[test]
fn attached_trace_is_schedule_invariant() {
    // Tracing is pure observability: a run with a sink attached must be
    // bit-for-bit identical to one without.
    let base = run_with(Acceleration::none(), 8);
    let cfg = CoSimConfig::date2000_defaults();
    let mut sim = CoSimulator::new(two_proc_soc(8), cfg).expect("builds");
    let shared = SharedSink::new(MemorySink::new());
    sim.attach_trace(Box::new(shared.clone()));
    let r = sim.run();
    assert_eq!(r.total_energy_j().to_bits(), base.total_energy_j().to_bits());
    assert_eq!(r.total_cycles, base.total_cycles);
    assert_eq!(r.firings, base.firings);
    assert!(sim.detach_trace().is_some(), "sink comes back out");
    shared.with(|m| {
        assert_eq!(m.of_kind("firing_start").len() as u64, r.firings);
        assert_eq!(m.of_kind("firing_end").len() as u64, r.firings);
        assert!(!m.of_kind("energy_sample").is_empty());
        assert!(!m.of_kind("icache_batch").is_empty(), "SW fetches traced");
    });
}

#[test]
fn metrics_sink_aggregates_match_report() {
    let cfg = CoSimConfig::date2000_defaults().with_accel(Acceleration::caching(
        CachingConfig {
            thresh_variance: 0.05,
            thresh_iss_calls: 2,
            keep_samples: false,
        },
    ));
    let mut sim = CoSimulator::new(two_proc_soc(20), cfg).expect("builds");
    let shared = SharedSink::new(MetricsSink::new());
    sim.attach_trace(Box::new(shared.clone()));
    let r = sim.run();
    shared.with(|m| {
        assert_eq!(m.firings, r.firings);
        assert_eq!(m.detailed_calls, r.detailed_calls);
        assert_eq!(m.accelerated_calls(), r.accelerated_calls);
        assert_eq!(
            m.answered_by_layer.get("cache").copied().unwrap_or(0),
            r.accelerated_calls,
            "every accelerated call came from the cache layer"
        );
        assert!(m.cache_hits + m.cache_misses > 0);
    });
}

#[test]
fn faults_and_watchdog_trips_are_traced() {
    let cfg = CoSimConfig::date2000_defaults()
        .with_faults(crate::FaultPlan::new().freeze_process(0, "producer", 500))
        .with_watchdog(desim::WatchdogConfig {
            max_cycles: Some(50_000),
            ..desim::WatchdogConfig::default()
        });
    let mut sim = CoSimulator::new(two_proc_soc(100), cfg).expect("builds");
    let shared = SharedSink::new(MemorySink::new());
    sim.attach_trace(Box::new(shared.clone()));
    let r = sim.run();
    assert!(r.outcome.is_degraded());
    shared.with(|m| {
        assert_eq!(m.of_kind("fault_injected").len(), 1);
        assert_eq!(m.of_kind("watchdog_trip").len(), 1);
    });
}

/// The golden snapshot of one default-configured run.
fn snapshot_of(soc: SocDescription, cfg: CoSimConfig) -> String {
    CoSimulator::new(soc, cfg)
        .expect("builds")
        .run()
        .golden_snapshot()
}

/// `two_proc_soc` with DATA values offered straight to the consumer:
/// a DATA arriving while the consumer is busy waits in its one-place
/// buffer, where a later one overwrites it, so the order of deliveries
/// at one cycle decides what the consumer accumulates.
fn data_stimulus_soc(stimulus: &[(u64, Option<i64>)]) -> SocDescription {
    let mut soc = two_proc_soc(0);
    let go = soc.network.event_by_name("GO").expect("GO");
    let data = soc.network.event_by_name("DATA").expect("DATA");
    soc.stimulus = stimulus
        .iter()
        .map(|&(t, v)| match v {
            Some(v) => (t, EventOccurrence::valued(data, v)),
            None => (t, EventOccurrence::pure(go)),
        })
        .collect();
    soc
}

#[test]
fn unsorted_stimulus_reports_as_its_stable_sort() {
    let cfg = CoSimConfig::date2000_defaults;
    let unsorted = data_stimulus_soc(&[
        (20_000, None),
        (5_000, Some(7)),
        (5_000, Some(11)),
        (0, None),
        (10_000, None),
        (5_000, Some(2)),
        (15_000, Some(40)),
        (10_000, Some(-3)),
    ]);
    let mut sorted = unsorted.clone();
    sorted.stimulus.sort_by_key(|&(t, _)| t);
    assert_ne!(unsorted.stimulus, sorted.stimulus);
    let expected = snapshot_of(sorted.clone(), cfg());
    if let Some(diff) = snapshot_diff(&expected, &snapshot_of(unsorted, cfg())) {
        panic!("an unsorted stimulus ran differently from its stable sort:\n{diff}");
    }
    // The order among occurrences at one cycle is visible in the report,
    // so the comparison above would catch a sort that reordered them.
    let mut ties_swapped = sorted;
    ties_swapped.stimulus.swap(1, 2);
    assert_ne!(snapshot_of(ties_swapped, cfg()), expected);
}

#[test]
fn a_delayed_delivery_follows_the_stimulus_due_at_its_cycle() {
    // DATA(5) at cycle 1 000, delayed by 1 000 cycles, is rescheduled
    // onto cycle 2 000, where the stimulus offers DATA(9) and DATA(1):
    // both stimulus occurrences are delivered first, as if they preceded
    // the delayed one in the stimulus itself. The consumer fires on the
    // first delivery and keeps the last one for its next firing.
    let consumer_energy = |cfg: CoSimConfig, stimulus: &[(u64, Option<i64>)]| {
        let r = CoSimulator::new(data_stimulus_soc(stimulus), cfg)
            .expect("builds")
            .run();
        r.process_energy_j("consumer").to_bits()
    };
    let delayed = consumer_energy(
        CoSimConfig::date2000_defaults()
            .with_faults(crate::FaultPlan::new().delay_event(0, "DATA", 1_000)),
        &[(1_000, Some(5)), (2_000, Some(9)), (2_000, Some(1))],
    );
    let plain = |values: [i64; 3]| {
        let stimulus = values.map(|v| (2_000, Some(v)));
        consumer_energy(CoSimConfig::date2000_defaults(), &stimulus)
    };
    assert_eq!(delayed, plain([9, 1, 5]));
    assert_ne!(delayed, plain([5, 9, 1]), "the delayed delivery went first");
}
