//! Pre-simulation verification integration tests: the three reference
//! systems are provably clean, doomed specs are rejected through the
//! typed `Unverifiable` error at every entry point (`new_verified`,
//! `verify_first` sweeps), and the checker is read-only — a verified
//! run is bit-identical to an unverified one.

use cfsm::{Cfg, Cfsm, EventDef, EventOccurrence, Implementation, Network, ProcId};
use co_estimation::{
    explore_bus_architecture_parallel, explore_partitions_parallel, verify_soc,
    BuildEstimatorError, CoSimConfig, CoSimulator, ExploreOptions, RunOutcome, Severity,
    SocDescription,
};
use systems::{automotive, producer_consumer, tcpip};

fn reference_systems() -> Vec<(&'static str, SocDescription)> {
    vec![
        (
            "tcpip",
            tcpip::build(&tcpip::TcpIpParams {
                num_packets: 4,
                len_range: (8, 16),
                pkt_period: 5_000,
                seed: 7,
            })
            .expect("valid params"),
        ),
        (
            "producer_consumer",
            producer_consumer::build(&producer_consumer::ProducerConsumerParams {
                num_pkts: 5,
                pkt_bytes: 24,
                start_period: 600,
                tick_period: 150,
                num_starts: 25,
            })
            .expect("valid params"),
        ),
        (
            "automotive",
            automotive::build(&automotive::AutomotiveParams {
                num_samples: 6,
                sample_period: 1_500,
                pulse_period: 200,
                target_speed: 25,
            })
            .expect("valid params"),
        ),
    ]
}

/// A two-process system where `waiter` is starved: it listens to an
/// event only ever named in its own trigger, while `spinner` keeps the
/// schedule alive.
fn doomed() -> SocDescription {
    let mut nb = Network::builder();
    let tick = nb.event(EventDef::pure("TICK"));
    let phantom = nb.event(EventDef::pure("PHANTOM"));
    let mut b = Cfsm::builder("spinner");
    let s = b.state("s");
    b.transition(s, vec![tick], None, Cfg::empty(), s);
    nb.process(b.finish().expect("valid machine"), Implementation::Hw);
    let mut b = Cfsm::builder("waiter");
    let s = b.state("s");
    b.transition(s, vec![phantom], None, Cfg::empty(), s);
    nb.process(b.finish().expect("valid machine"), Implementation::Sw);
    SocDescription {
        name: "doomed".into(),
        network: nb.finish().expect("valid network"),
        stimulus: vec![(10, EventOccurrence::pure(tick))],
        priorities: vec![1, 1],
    }
}

#[test]
fn reference_systems_verify_with_zero_errors() {
    for (name, soc) in reference_systems() {
        let report = verify_soc(&soc);
        assert!(
            !report.has_errors(),
            "{name} must have zero error-severity findings:\n{report}"
        );
        if let Some(finding) = report.errors().next() {
            panic!("{name}: unexpected error finding {finding}");
        }
        // Warnings (if any) must carry warning severity only.
        for finding in report.warnings() {
            assert_eq!(finding.severity, Severity::Warning);
        }
    }
}

#[test]
fn new_verified_accepts_the_reference_systems() {
    for (name, soc) in reference_systems() {
        let sim = CoSimulator::new_verified(soc, CoSimConfig::date2000_defaults());
        assert!(sim.is_ok(), "{name} must pass the verified front door");
    }
}

#[test]
fn new_verified_rejects_a_doomed_spec_with_the_full_report() {
    let err = CoSimulator::new_verified(doomed(), CoSimConfig::date2000_defaults());
    let Err(BuildEstimatorError::Unverifiable(report)) = err else {
        panic!("doomed spec must be Unverifiable, got {err:?}");
    };
    assert!(report.has_errors());
    let rendered = report.render();
    assert!(
        rendered.contains("PHANTOM") && rendered.contains("waiter"),
        "diagnosis must name the orphan and its consumer:\n{rendered}"
    );
    // The same report rides inside the error's Display rendering.
    let err_text = BuildEstimatorError::Unverifiable(report).to_string();
    assert!(err_text.contains("verification"), "{err_text}");
}

#[test]
fn verify_first_gates_parallel_sweeps() {
    let options = ExploreOptions::serial().verified();
    let config = CoSimConfig::date2000_defaults();

    let bad = doomed();
    let movable: Vec<ProcId> = vec![ProcId(0)];
    let err = explore_partitions_parallel(&bad, &config, &movable, &options);
    assert!(
        matches!(err, Err(BuildEstimatorError::Unverifiable(_))),
        "verify_first must fail the sweep before any point runs"
    );
    let err = explore_bus_architecture_parallel(&bad, &config, &[ProcId(0)], &[4], &options);
    assert!(matches!(err, Err(BuildEstimatorError::Unverifiable(_))));

    // A clean spec sweeps normally under the same gate.
    let (_, soc) = reference_systems().remove(0);
    let sweep = explore_bus_architecture_parallel(
        &soc,
        &config,
        &[ProcId(0), ProcId(1)],
        &[4],
        &options,
    )
    .expect("clean spec sweeps under verify_first");
    assert!(sweep.stats.points > 0);
}

#[test]
fn verification_is_read_only() {
    // Run the same spec (a) cold and (b) with a verify() call between
    // build and run: every figure must be bit-identical.
    let config = CoSimConfig::date2000_defaults();
    let build = || {
        tcpip::build(&tcpip::TcpIpParams {
            num_packets: 4,
            len_range: (8, 16),
            pkt_period: 5_000,
            seed: 7,
        })
        .expect("valid params")
    };
    let cold = CoSimulator::new(build(), config.clone()).expect("builds").run();

    let mut sim = CoSimulator::new_verified(build(), config).expect("verifies");
    let pre = sim.verify();
    assert!(!pre.has_errors());
    let checked = sim.run();
    let post = sim.verify();
    assert_eq!(pre, post, "verification reports are stable across a run");

    assert!(matches!(checked.outcome, RunOutcome::Completed));
    assert_eq!(cold.total_cycles, checked.total_cycles);
    assert_eq!(cold.firings, checked.firings);
    assert_eq!(
        cold.total_energy_j().to_bits(),
        checked.total_energy_j().to_bits(),
        "energy must be bit-identical with and without verification"
    );
}

#[test]
fn checker_severity_split_matches_the_documented_model() {
    // The doomed spec: orphan trigger = error; the spinner's TICK is
    // consumed, so the only other possible finding is advisory.
    let report = verify_soc(&doomed());
    assert!(report.errors().count() >= 1);
    for f in report.errors() {
        assert_eq!(f.severity, Severity::Error);
    }
}
