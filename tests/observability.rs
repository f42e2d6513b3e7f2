//! Observability contract: provenance attribution must sum bit-exactly
//! to the report totals on every system under every acceleration mode,
//! and attaching a metrics trace sink must not perturb a single bit of
//! the golden snapshot.
//!
//! The sink's aggregates are also pinned to the master's own counters
//! (firings, detailed calls, accelerated calls), so the trace stream
//! cannot silently drift away from what the report claims.

mod common;

use co_estimation::{
    explore_bus_architecture_parallel, explore_power_policies_parallel, permutations,
    Acceleration, CachingConfig, CoSimConfig, CoSimReport, CoSimulator, ExploreOptions, FaultPlan,
    GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy, Provenance, SamplingConfig,
    SocDescription,
};
use common::{fig7_procs, fig7_soc, standalone_bus_point};
use soctrace::{MetricsSink, SharedSink};
use systems::automotive::{self, AutomotiveParams};
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

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
    // The Table 1 thresholds: a path is served after 2 observations
    // within 20 % variation, looser than the defaults' 3 within 5 %.
    let table1_caching = CachingConfig {
        thresh_variance: 0.20,
        thresh_iss_calls: 2,
        keep_samples: false,
    };
    vec![
        ("baseline", Acceleration::none()),
        ("caching", Acceleration::caching(CachingConfig::new())),
        ("caching_table1", Acceleration::caching(table1_caching)),
        ("macromodel", Acceleration::macromodel()),
        ("sampling", Acceleration::sampling(SamplingConfig { period: 4 })),
    ]
}

/// Runs with a metrics sink attached; returns the report and the
/// aggregated metrics.
fn run_observed(soc: SocDescription, config: CoSimConfig) -> (CoSimReport, MetricsSink) {
    let metrics = SharedSink::new(MetricsSink::new());
    let mut sim = CoSimulator::new(soc, config).expect("valid soc");
    sim.attach_trace(Box::new(metrics.clone()));
    let report = sim.run();
    drop(sim);
    (report, metrics.into_inner())
}

#[test]
fn provenance_sums_bit_exactly_on_every_system_and_mode() {
    let base = CoSimConfig::date2000_defaults();
    for (system, soc) in all_systems() {
        for (mode, accel) in all_modes() {
            let config = base.with_accel(accel);
            let mut plain = CoSimulator::new(soc.clone(), config.clone()).expect("valid soc");
            let plain_report = plain.run();
            let (observed, metrics) = run_observed(soc.clone(), config);

            observed
                .verify_provenance()
                .unwrap_or_else(|e| panic!("{system}/{mode}: {e}"));
            assert_eq!(
                plain_report.golden_snapshot(),
                observed.golden_snapshot(),
                "{system}/{mode}: observability perturbed the report"
            );
            // Trace aggregates are pinned to the master's own counters.
            assert_eq!(
                metrics.firings, observed.firings,
                "{system}/{mode}: one firing_start record per firing"
            );
            assert_eq!(
                metrics.detailed_calls, observed.detailed_calls,
                "{system}/{mode}: one detailed firing_end record per detailed call"
            );
            assert_eq!(
                metrics.accelerated_calls(),
                observed.accelerated_calls,
                "{system}/{mode}: one layer_answered record per accelerated call"
            );
        }
    }
}

#[test]
fn provenance_buckets_track_the_active_technique() {
    let soc = small_tcpip();
    let base = CoSimConfig::date2000_defaults();

    let (baseline, _) = run_observed(soc.clone(), base.clone());
    for p in [
        Provenance::CacheReuse,
        Provenance::MacroModel,
        Provenance::SampledScaled,
    ] {
        assert_eq!(
            baseline.provenance.records_for(p),
            0,
            "baseline run must attribute nothing to {p:?}"
        );
    }
    assert!(baseline.provenance.records_for(Provenance::BusModel) > 0);

    let (cached, _) = run_observed(
        soc.clone(),
        base.with_accel(Acceleration::caching(CachingConfig::new())),
    );
    assert!(cached.provenance.records_for(Provenance::CacheReuse) > 0);
    assert_eq!(cached.provenance.records_for(Provenance::SampledScaled), 0);

    let (macro_run, _) = run_observed(soc.clone(), base.with_accel(Acceleration::macromodel()));
    assert!(macro_run.provenance.records_for(Provenance::MacroModel) > 0);

    let (sampled, _) = run_observed(
        soc,
        base.with_accel(Acceleration::sampling(SamplingConfig { period: 4 })),
    );
    assert!(sampled.provenance.records_for(Provenance::SampledScaled) > 0);

    // The bucket partition is exact (same additions, different grouping),
    // so its sum may differ from the bit-exact component sum only by
    // float reassociation noise.
    for r in [&baseline, &cached, &macro_run, &sampled] {
        let total = r.provenance.total_energy_j();
        assert!((r.provenance.bucket_sum_j() - total).abs() <= 1e-12 * total.abs().max(1e-300));
    }
}

#[test]
fn effectiveness_counters_reconcile_with_the_report() {
    let soc = small_tcpip();
    let base = CoSimConfig::date2000_defaults();

    let (baseline, _) = run_observed(soc.clone(), base.clone());
    assert_eq!(baseline.effectiveness.iss_calls_avoided(), 0);
    assert!(baseline.effectiveness.cache.is_none());
    assert!(baseline.effectiveness.sampling.is_none());

    let (cached, _) = run_observed(
        soc.clone(),
        base.with_accel(Acceleration::caching(CachingConfig::new())),
    );
    let cache = cached.effectiveness.cache.as_ref().expect("cache stats");
    assert_eq!(
        cache.hits,
        cached.firings - cached.detailed_calls,
        "every avoided detailed call must be a cache hit"
    );
    assert_eq!(
        cached.effectiveness.iss_calls_avoided(),
        cached.firings - cached.detailed_calls
    );
    assert!(cache.eligible_paths <= cache.distinct_paths);
    assert!(
        cache.max_eligible_cv <= cache.cv_bound,
        "served paths must respect the §4.2 variance bound"
    );

    let (sampled, _) = run_observed(
        soc,
        base.with_accel(Acceleration::sampling(SamplingConfig { period: 4 })),
    );
    let sampling = sampled.effectiveness.sampling.as_ref().expect("sampling stats");
    assert_eq!(sampling.period, 4);
    assert_eq!(
        sampling.served + sampling.samples,
        sampled.firings,
        "served + sampled firings must cover every firing"
    );
    assert!(sampling.compaction_ratio() > 1.0);
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

#[test]
fn provenance_stays_an_exact_partition_under_power_management() {
    let base = CoSimConfig::date2000_defaults();
    for (system, soc) in all_systems() {
        let config = base.with_power_policy(managed_policy(&soc));
        let (report, _) = run_observed(soc, config);
        report
            .verify_provenance()
            .unwrap_or_else(|e| panic!("{system}: {e}"));
        let power = report.power.as_ref().unwrap_or_else(|| {
            panic!("{system}: a managed run must carry a power report")
        });
        assert!(
            report.provenance.records_for(Provenance::Leakage) > 0,
            "{system}: leakage spans must be booked"
        );
        assert!(power.leakage_j > 0.0, "{system}: leakage must accrue");
        // The provenance bucket and the power report book the same joules.
        let leak_bucket = report.provenance.energy_for(Provenance::Leakage);
        assert!(
            (leak_bucket - power.leakage_j).abs() <= 1e-12 * power.leakage_j.max(1e-300),
            "{system}: Leakage bucket ({leak_bucket}) != power report ({})",
            power.leakage_j
        );
    }
}

#[test]
fn metrics_residency_reconciles_with_the_power_report() {
    // The MetricsSink reconstructs per-state residency purely from the
    // PowerTransition trace stream (plus the synthetic cycle-0 records
    // for DVFS-pinned components); it must agree cycle-for-cycle with
    // the power report's residency counters, which the runtime
    // integrates independently during leakage settlement.
    let base = CoSimConfig::date2000_defaults();
    for (system, soc) in all_systems() {
        let config = base.with_power_policy(managed_policy(&soc));
        let metrics = SharedSink::new(MetricsSink::new());
        let mut sim = CoSimulator::new(soc, config).expect("valid soc");
        sim.attach_trace(Box::new(metrics.clone()));
        let report = sim.run();
        drop(sim);
        let metrics = metrics.into_inner();
        let power = report.power.as_ref().expect("managed run has a power report");
        let end = report.total_cycles;
        for (p, c) in power.components.iter().enumerate() {
            let p = p as u32;
            let mut reconstructed = 0u64;
            for (state, expected) in [
                ("active", c.active_cycles),
                ("dvfs", c.dvfs_cycles),
                ("clock_gated", c.clock_gated_cycles),
                ("power_gated", c.power_gated_cycles),
            ] {
                let got = metrics.power_residency(p, state, end);
                assert_eq!(got, expected, "{system}: process {p} residency in `{state}`");
                reconstructed += got;
            }
            // The four states partition the whole run.
            assert_eq!(reconstructed, end, "{system}: process {p} residency total");
        }
    }
}

#[test]
fn provenance_stays_exact_with_power_management_and_faults() {
    let soc = small_tcpip();
    let faults = FaultPlan::new()
        .delay_event(4_000, "CHK_SUM", 250)
        .corrupt_energy(9_000, "checksum", 1.5)
        .stall_bus(14_000, 40);
    let config = CoSimConfig::date2000_defaults()
        .with_power_policy(managed_policy(&soc))
        .with_faults(faults);
    let (report, _) = run_observed(soc, config);
    report
        .verify_provenance()
        .unwrap_or_else(|e| panic!("faulted managed run: {e}"));
    assert!(!report.anomalies.is_empty(), "the plan must have injected");
    assert!(report.provenance.records_for(Provenance::Leakage) > 0);
}

#[test]
fn power_sweeps_are_bitwise_identical_serial_vs_parallel() {
    let soc = small_tcpip();
    let base = CoSimConfig::date2000_defaults();
    let policies = vec![
        PowerPolicy::none(),
        PowerPolicy::named("leak").with_leakage(LeakageModel::with_default_rate(1.0e-3)),
        managed_policy(&soc),
    ];
    // The oracle: each policy run standalone, outside the sweep.
    let standalone: Vec<CoSimReport> = policies
        .iter()
        .map(|p| {
            CoSimulator::new(soc.clone(), base.with_power_policy(p.clone()))
                .expect("system builds")
                .run()
        })
        .collect();
    for workers in [1usize, 3] {
        let par = explore_power_policies_parallel(
            &soc,
            &base,
            &policies,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        assert_eq!(standalone.len(), par.points.len());
        for ((s, p), policy) in standalone.iter().zip(&par.points).zip(&policies) {
            assert_eq!(policy.name, p.policy_name);
            assert_eq!(
                s.golden_snapshot(),
                p.report.golden_snapshot(),
                "policy `{}` diverged at workers = {workers}",
                policy.name
            );
            assert_eq!(
                s.total_energy_j().to_bits(),
                p.energy_j().to_bits(),
                "policy `{}` energy bits diverged at workers = {workers}",
                policy.name
            );
            p.report
                .verify_provenance()
                .unwrap_or_else(|e| panic!("policy `{}`: {e}", policy.name));
        }
    }
}

#[test]
fn memoized_parallel_bus_sweep_points_equal_standalone_runs() {
    let soc = fig7_soc();
    let config = CoSimConfig::date2000_defaults();
    let procs = fig7_procs(&soc);
    let dmas = [1u32, 8, 32, 128];

    let mut standalone = Vec::new();
    for perm in permutations(&procs) {
        for &dma in &dmas {
            standalone.push(standalone_bus_point(&soc, &config, &perm, dma, None));
        }
    }

    let before = gatesim::firing_memo_stats();
    let sweep = explore_bus_architecture_parallel(
        &soc,
        &config,
        &procs,
        &dmas,
        &ExploreOptions::with_workers(4),
    )
    .expect("parallel sweep");
    let after = gatesim::firing_memo_stats();

    assert_eq!(standalone.len(), sweep.points.len());
    for (i, (s, p)) in standalone.iter().zip(&sweep.points).enumerate() {
        assert_eq!(
            s.golden_snapshot(),
            p.report.golden_snapshot(),
            "point {i} drifted from its standalone run"
        );
        p.report
            .verify_provenance()
            .unwrap_or_else(|e| panic!("point {i}: {e}"));
    }
    // The standalone runs simulated every firing; the sweep answered
    // repeated hardware firings from the memo.
    assert!(after.hits > before.hits, "the sweep's firing memo served nothing");
}
