//! Differential determinism: the sweep engine at several worker counts
//! against standalone runs of its points, bitwise, on the Fig. 7
//! exploration.
//!
//! The engine's whole contract is that fanning a sweep across a worker
//! pool changes *nothing* about its result — only its latency — and that
//! the firing memo the sweep holds changes nothing either. These tests
//! run every point of the 48-point Fig. 7 bus-architecture sweep on its
//! own (outside any firing-memo scope, so every hardware firing is
//! simulated), then run the sweep at several worker counts (1, 2, 8,
//! plus an optional count from the `EXPLORE_WORKERS` env var, which CI
//! uses to probe extra pool shapes) and require every point — label,
//! priority assignment, DMA size, and the full report down to float bit
//! patterns — to equal its standalone run. A second pass repeats the
//! comparison under a non-empty `FaultPlan`, so the fault-injection
//! layer does not break the contract either.

mod common;

use co_estimation::{
    explore_bus_architecture_parallel, explore_partitions_parallel, permutations,
    BuildEstimatorError, CoSimConfig, CoSimulator, ExplorationPoint, ExploreOptions, FaultPlan,
    SocDescription,
};
use common::{fig7_procs, fig7_soc, standalone_bus_point};

/// Worker counts under test: the fixed set plus CI's optional extra.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(extra) = std::env::var("EXPLORE_WORKERS") {
        if let Ok(n) = extra.parse::<usize>() {
            if n > 0 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

const FIG7_DMA_SIZES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// What one bus-sweep point must equal: its label, priorities and DMA
/// size, and the golden snapshot of its standalone run.
struct Expected {
    label: String,
    priorities: Vec<(cfsm::ProcId, u8)>,
    dma: u32,
    snapshot: String,
}

/// Every point of a bus sweep, in enumeration order, run standalone.
fn standalone_sweep(
    soc: &SocDescription,
    config: &CoSimConfig,
    procs: &[cfsm::ProcId],
    dmas: &[u32],
) -> Vec<Expected> {
    let mut out = Vec::new();
    for perm in permutations(procs) {
        let n = perm.len() as u8;
        let names: Vec<&str> = perm.iter().map(|&p| soc.network.cfsm(p).name()).collect();
        for &dma in dmas {
            out.push(Expected {
                label: names.join(" > "),
                priorities: perm
                    .iter()
                    .enumerate()
                    .map(|(rank, &p)| (p, n - rank as u8))
                    .collect(),
                dma,
                snapshot: standalone_bus_point(soc, config, &perm, dma, None).golden_snapshot(),
            });
        }
    }
    out
}

fn assert_points_match(want: &[Expected], got: &[ExplorationPoint], context: &str) {
    assert_eq!(want.len(), got.len(), "{context}: point count");
    for (i, (w, p)) in want.iter().zip(got).enumerate() {
        assert_eq!(p.dma_block_size, w.dma, "{context}: point {i} dma");
        assert_eq!(p.priorities, w.priorities, "{context}: point {i} priorities");
        assert_eq!(p.label, w.label, "{context}: point {i} label");
        if let Some(diff) = co_estimation::snapshot_diff(&w.snapshot, &p.report.golden_snapshot())
        {
            panic!(
                "{context}: point {i} ({}, dma {}) report drift:\n{diff}",
                w.label, w.dma
            );
        }
    }
}

#[test]
fn fig7_parallel_sweep_is_bitwise_identical_to_serial() {
    let soc = fig7_soc();
    let config = CoSimConfig::date2000_defaults();
    let procs = fig7_procs(&soc);
    let want = standalone_sweep(&soc, &config, &procs, &FIG7_DMA_SIZES);
    assert_eq!(want.len(), 48, "6 permutations x 8 DMA sizes");
    for workers in worker_counts() {
        let sweep = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &FIG7_DMA_SIZES,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        assert_points_match(&want, &sweep.points, &format!("workers = {workers}"));
        assert_eq!(sweep.stats.points, 48);
        assert_eq!(sweep.stats.degraded, 0);
    }
}

#[test]
fn fig7_parallel_sweep_matches_serial_under_fault_injection() {
    let soc = fig7_soc();
    // A non-empty plan exercising the delivery-fault and timed-fault
    // interception paths in every one of the co-simulations.
    let config = CoSimConfig::date2000_defaults().with_faults(
        FaultPlan::new()
            .drop_event(1, "CHK_GO")
            .delay_event(2_400, "CHK_SUM", 700),
    );
    let procs = fig7_procs(&soc);
    // Half the DMA grid keeps the faulted differential affordable; the
    // full grid is covered by the fault-free differential above.
    let dmas = [1u32, 8, 32, 128];
    let want = standalone_sweep(&soc, &config, &procs, &dmas);
    for workers in [1usize, 2, 8] {
        let sweep = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &dmas,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        assert_points_match(&want, &sweep.points, &format!("faulted, workers = {workers}"));
        // The faults really fired in every point.
        assert!(sweep
            .points
            .iter()
            .all(|p| p.report.anomalies.faults_injected() > 0));
    }
}

#[test]
fn partition_sweep_parallel_matches_serial() {
    let soc = fig7_soc();
    let config = CoSimConfig::date2000_defaults();
    let movable: Vec<cfsm::ProcId> = ["create_pack", "checksum"]
        .iter()
        .map(|n| soc.network.process_by_name(n).expect("process exists"))
        .collect();
    // Standalone runs of every feasible partition, in enumeration order.
    let mut want = Vec::new();
    for bits in 0..1u32 << movable.len() {
        let mut variant = soc.clone();
        for (k, &p) in movable.iter().enumerate() {
            let m = if bits >> k & 1 == 1 {
                cfsm::Implementation::Hw
            } else {
                cfsm::Implementation::Sw
            };
            variant.network.set_mapping(p, m);
        }
        let mapping: Vec<_> = variant
            .network
            .process_ids()
            .map(|p| variant.network.mapping(p))
            .collect();
        match CoSimulator::new(variant, config.clone()) {
            Ok(mut sim) => want.push((mapping, sim.run().golden_snapshot())),
            Err(BuildEstimatorError::Synth(_, _)) => {} // infeasible in HW
            Err(e) => panic!("partition {bits:#b}: {e}"),
        }
    }
    for workers in [1usize, 4] {
        let sweep = explore_partitions_parallel(
            &soc,
            &config,
            &movable,
            &ExploreOptions::with_workers(workers),
        )
        .expect("sweep");
        assert_eq!(sweep.points.len(), want.len(), "workers = {workers}");
        for (p, (mapping, snapshot)) in sweep.points.iter().zip(&want) {
            assert_eq!(&p.mapping, mapping, "{}", p.label);
            assert_eq!(
                &p.report.golden_snapshot(),
                snapshot,
                "{} diverged at workers = {workers}",
                p.label
            );
        }
    }
}
