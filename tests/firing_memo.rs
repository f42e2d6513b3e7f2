//! The exact firing memo against unmemoized co-simulation, bit for bit.
//!
//! Every sweep holds a `gatesim::FiringMemoScope`, so a hardware firing
//! that an earlier point already simulated from the same state and
//! inputs is answered by copying the stored result. These tests require
//! every memoized point to equal a standalone co-simulation of the same
//! configuration — run outside any scope, so it simulates every firing —
//! down to the golden snapshot, at several worker counts, under fault
//! injection and on a corpus of generated systems. The equality tests
//! hold under any kernel (`GATESIM_KERNEL=oblivious` memoizes nothing,
//! so there they check the sweeps alone); the tests that require the
//! memo to have answered firings run under the default kernel only.

mod common;
mod corpus;

use co_estimation::{
    explore_bus_architecture_parallel, explore_stimulus_seeds_parallel, permutations,
    stimulus_variant, CoSimConfig, CoSimulator, ExploreOptions, FaultPlan, SocDescription,
    StimulusJitter,
};
use common::{fig7_procs, fig7_soc, standalone_bus_point};
use desim::WatchdogConfig;
use soctrace::{MetricsSink, SharedSink};
use std::sync::{Mutex, MutexGuard};
use systems::producer_consumer::{self, ProducerConsumerParams};

/// Serializes the tests: the memo counters they compare are
/// process-wide, and a sweep in one test could otherwise serve another
/// test's firings from the shared memos.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs the tcpip bus sweep (6 orders x 3 DMA sizes), plain and under
/// fault injection, at 1 and 3 workers; checks every point against a
/// standalone run of its configuration and returns, per sweep, its
/// label, the memo hits it scored and the memo bytes left after it.
fn check_bus_sweeps() -> Vec<(String, u64, usize)> {
    let soc = fig7_soc();
    let procs = fig7_procs(&soc);
    let dmas = [1u32, 4, 32];
    let plain = CoSimConfig::date2000_defaults();
    let faulted = plain.with_faults(
        FaultPlan::new()
            .drop_event(1, "CHK_GO")
            .stall_bus(2_000, 1_500)
            .corrupt_energy(1, "ip_check", 3.0),
    );
    let mut sweeps = Vec::new();
    for (name, config) in [("plain", &plain), ("faulted", &faulted)] {
        let mut expected = Vec::new();
        for perm in permutations(&procs) {
            for &dma in &dmas {
                let report = standalone_bus_point(&soc, config, &perm, dma, None);
                expected.push((perm.clone(), dma, report.golden_snapshot()));
            }
        }
        assert_eq!(expected.len(), 18, "6 orders x 3 DMA sizes");
        for workers in [1usize, 3] {
            let before = gatesim::firing_memo_stats();
            let sweep = explore_bus_architecture_parallel(
                &soc,
                config,
                &procs,
                &dmas,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            let after = gatesim::firing_memo_stats();
            assert_eq!(sweep.points.len(), expected.len());
            for (i, (p, (perm, dma, want))) in sweep.points.iter().zip(&expected).enumerate() {
                let n = perm.len() as u8;
                let priorities: Vec<_> = perm
                    .iter()
                    .enumerate()
                    .map(|(rank, &q)| (q, n - rank as u8))
                    .collect();
                assert_eq!((&p.priorities, p.dma_block_size), (&priorities, *dma));
                if let Some(diff) = co_estimation::snapshot_diff(want, &p.report.golden_snapshot())
                {
                    panic!("{name}, workers = {workers}: point {i} drifted:\n{diff}");
                }
            }
            if name == "faulted" {
                assert!(sweep
                    .points
                    .iter()
                    .all(|p| p.report.anomalies.faults_injected() > 0));
            }
            let label = format!("{name}, workers = {workers}");
            sweeps.push((label, after.hits - before.hits, after.bytes));
        }
    }
    sweeps
}

#[test]
fn memoized_bus_sweep_points_equal_standalone_runs() {
    let _serial = serial();
    check_bus_sweeps();
}

/// Runs a stimulus sweep of `soc` at 1 and 3 workers and checks every
/// point against a standalone run of its seed's variant; returns the
/// memo hits of each sweep.
fn check_stimulus_sweep(name: &str, soc: &SocDescription, config: &CoSimConfig) -> [u64; 2] {
    let seeds = [1u64, 2, 3, 4, 5, 6];
    let jitter = StimulusJitter::default();
    let expected: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            CoSimulator::new(stimulus_variant(soc, seed, &jitter), config.clone())
                .expect("system builds")
                .run()
                .golden_snapshot()
        })
        .collect();
    [1usize, 3].map(|workers| {
        let before = gatesim::firing_memo_stats();
        let sweep = explore_stimulus_seeds_parallel(
            soc,
            config,
            &seeds,
            &jitter,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        let after = gatesim::firing_memo_stats();
        assert_eq!(sweep.points.len(), seeds.len());
        for (p, want) in sweep.points.iter().zip(&expected) {
            if let Some(diff) = co_estimation::snapshot_diff(want, &p.report.golden_snapshot()) {
                panic!(
                    "{name}, workers = {workers}: seed {} drifted:\n{diff}",
                    p.seed
                );
            }
        }
        after.hits - before.hits
    })
}

/// Checks the producer_consumer stimulus sweeps, plain and under fault
/// injection, and the generated corpus's; returns the memo hits of
/// each named configuration's sweeps and the corpus's total.
fn check_stimulus_sweeps() -> (Vec<(&'static str, [u64; 2])>, u64) {
    let soc = producer_consumer::build(&ProducerConsumerParams::default()).expect("valid params");
    let plain = CoSimConfig::date2000_defaults();
    let faulted = plain.with_faults(
        FaultPlan::new()
            .drop_event(1, "BYTE_DONE")
            .stall_bus(3_000, 1_500)
            .corrupt_energy(1, "consumer", 3.0),
    );
    let named = [("plain", &plain), ("faulted", &faulted)]
        .map(|(name, config)| (name, check_stimulus_sweep(name, &soc, config)))
        .to_vec();
    // Generated systems, under budgets a live spec never hits.
    let guarded = plain.with_watchdog(WatchdogConfig {
        max_cycles: Some(50_000_000),
        max_events: Some(1_000_000),
        ..WatchdogConfig::unlimited()
    });
    let corpus: u64 = corpus::live_hw_systems()
        .iter()
        .map(|soc| check_stimulus_sweep(&soc.name, soc, &guarded).iter().sum::<u64>())
        .sum();
    (named, corpus)
}

#[test]
fn memoized_stimulus_sweep_points_equal_standalone_runs() {
    let _serial = serial();
    check_stimulus_sweeps();
}

#[test]
fn default_kernel_sweeps_answer_firings_from_the_memo() {
    // The two equality tests above, and the four-worker bus sweep of
    // tests/observability.rs, also run under a forced kernel, which
    // memoizes no firing; under the default kernel their sweeps must
    // really be answered from the memo.
    let _serial = serial();
    for (sweep, hits, bytes) in check_bus_sweeps() {
        assert!(hits > 0, "{sweep}: the memo answered no firing");
        assert_eq!(bytes, 0, "{sweep}: the sweep's end emptied the memo");
    }
    let soc = fig7_soc();
    let before = gatesim::firing_memo_stats();
    explore_bus_architecture_parallel(
        &soc,
        &CoSimConfig::date2000_defaults(),
        &fig7_procs(&soc),
        &[1, 8, 32, 128],
        &ExploreOptions::with_workers(4),
    )
    .expect("parallel sweep");
    let after = gatesim::firing_memo_stats();
    assert!(
        after.hits > before.hits,
        "the four-worker bus sweep's memo served nothing"
    );
    let (named, corpus) = check_stimulus_sweeps();
    for (name, hits) in named {
        assert!(
            hits.iter().all(|&h| h > 0),
            "{name}: the memo answered no firing in some sweep ({hits:?})"
        );
    }
    assert!(corpus > 0, "the memo answered no firing across the generated corpus");
}

#[test]
fn fig7_sweep_serves_most_firings_with_invariant_gate_events() {
    let _serial = serial();
    let soc = fig7_soc();
    let procs = fig7_procs(&soc);
    let dmas = [1u32, 2, 4, 8, 16, 32, 64, 128];
    let config = CoSimConfig::date2000_defaults();

    // The sweep engine: nearly every hardware firing repeats one an
    // earlier point already simulated.
    let before = gatesim::firing_memo_stats();
    let sweep =
        explore_bus_architecture_parallel(&soc, &config, &procs, &dmas, &ExploreOptions::serial())
            .expect("sweep");
    assert_eq!(sweep.points.len(), 48);
    let after = gatesim::firing_memo_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    assert!(
        hits * 100 >= (hits + misses) * 95,
        "the memo served {hits} of {} hardware firings",
        hits + misses
    );

    // The same points with metrics attached, standalone and then inside
    // one scope: gate events are memo-invariant, evaluations count only
    // the work done, and the hits match the firings the memo answered.
    let run_all = || {
        let sink = SharedSink::new(MetricsSink::new());
        for perm in permutations(&procs) {
            for &dma in &dmas {
                standalone_bus_point(&soc, &config, &perm, dma, Some(sink.clone()));
            }
        }
        sink.into_inner()
    };
    let standalone = run_all();
    let memoized = {
        let _scope = gatesim::FiringMemoScope::enter();
        run_all()
    };
    assert_eq!(standalone.gate_memo_hits, 0);
    assert_eq!(memoized.gate_events, standalone.gate_events);
    assert_eq!(memoized.gate_memo_hits, hits);
    assert!(memoized.gate_evals < standalone.gate_evals);
    assert_eq!(memoized.detailed_calls, standalone.detailed_calls);
}

#[test]
fn fig1_sweep_answers_repeated_timer_firings_from_the_memo() {
    // Fig. 1's timer fires the same 1 439 three-cycle firings at every
    // stimulus point, more than its first-sighting allowance holds; the
    // memo must grow on their reuse (under the default kernel) and every
    // point must still equal its standalone run.
    let _serial = serial();
    let soc =
        producer_consumer::build(&ProducerConsumerParams::fig1_defaults()).expect("valid params");
    let config = CoSimConfig::date2000_defaults();
    let jitter = StimulusJitter::default();
    let seeds: Vec<u64> = (1..=8).collect();
    let expected: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            CoSimulator::new(stimulus_variant(&soc, seed, &jitter), config.clone())
                .expect("system builds")
                .run()
                .golden_snapshot()
        })
        .collect();
    for workers in [1usize, 3] {
        // A scope of our own keeps the memo filled past the sweep's end,
        // so the bytes it held can be read.
        let scope = gatesim::FiringMemoScope::enter();
        let before = gatesim::firing_memo_stats();
        let sweep = explore_stimulus_seeds_parallel(
            &soc,
            &config,
            &seeds,
            &jitter,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        let after = gatesim::firing_memo_stats();
        drop(scope);
        for (p, want) in sweep.points.iter().zip(&expected) {
            if let Some(diff) = co_estimation::snapshot_diff(want, &p.report.golden_snapshot()) {
                panic!("workers = {workers}: seed {} drifted:\n{diff}", p.seed);
            }
        }
        assert!(
            after.bytes <= gatesim::FIRING_MEMO_CAP_BYTES,
            "{} bytes held past the cap",
            after.bytes
        );
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        if workers == 1 {
            assert!(
                hits * 100 >= (hits + misses) * 70,
                "the memo served {hits} of {} hardware firings",
                hits + misses
            );
        }
    }
}
