//! Design-space sweeps on a scoped worker pool.
//!
//! The paper's whole point of fast co-estimation is *iterative*
//! architecture exploration (§5.3): a 48-point sweep is only as useful as
//! its latency. Every point of a sweep is an independent co-simulation,
//! so the engine enumerates the whole work list up front, hands indices
//! to `std::thread::scope` workers through an atomic cursor, collects
//! `(index, result)` pairs over an `mpsc` channel, and reassembles the
//! output in index order. Each sweep has one entry point;
//! [`ExploreOptions::serial`] runs it on a single worker.
//!
//! # Determinism contract
//!
//! The reassembled `Vec` is **bit-for-bit identical** at every worker
//! count, and each point equals a standalone [`crate::CoSimulator`] run
//! of its configuration:
//!
//! * each index denotes exactly one `(configuration, simulation)`,
//!   built by the per-point evaluators of [`crate::explore`];
//! * each co-simulation is single-threaded and deterministic, and the
//!   firing memo answers a repeated hardware firing with exactly the
//!   bits it stored, so a point computes the same report regardless of
//!   which worker runs it, when, or which points ran before it;
//! * reassembly is by work-list index, so scheduling order never leaks
//!   into the output.
//!
//! Errors follow enumeration order too: workers record the lowest
//! work-list index that failed, stop claiming indices *above* it (indices
//! below still run, since one of them could fail earlier in enumeration
//! order), and the engine returns the lowest-indexed error — the error a
//! one-by-one evaluation in enumeration order would hit first, since
//! every point before it evaluated cleanly.

use crate::config::{CoSimConfig, SocDescription};
use crate::estimator::BuildEstimatorError;
use crate::explore::{
    check_partition_count, check_priority_count, eval_bus_point, eval_fault_point,
    eval_partition_point, eval_power_point, eval_stimulus_point, permutations, ExplorationPoint,
    FaultPoint, PartitionPoint, PowerPoint, StimulusJitter, StimulusPoint,
};
use crate::faults::FaultPlan;
use crate::report::CoSimReport;
use cfsm::ProcId;
use soctrace::{ArcSharedSink, ProfileReport};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// Per-point power-timeline capture for a sweep (see
/// [`ExploreOptions::timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineOptions {
    /// Width of each timeline window, master clock cycles (clamped to
    /// ≥ 1 by the sink).
    pub window_cycles: u64,
}

impl TimelineOptions {
    /// A timeline with the given window width.
    pub fn new(window_cycles: u64) -> Self {
        TimelineOptions { window_cycles }
    }
}

impl Default for TimelineOptions {
    /// 1000-cycle windows — the ledger's default waveform bucket.
    fn default() -> Self {
        TimelineOptions { window_cycles: 1_000 }
    }
}

/// How a sweep should run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads evaluating points. The engine clamps this to the
    /// number of points, so over-provisioning is harmless.
    pub workers: NonZeroUsize,
    /// When set, overrides the base configuration's watchdog for every
    /// point, so one degraded (livelocked / runaway) design point cannot
    /// hang the whole sweep. `None` keeps the base config's budgets.
    pub watchdog: Option<desim::WatchdogConfig>,
    /// When set, every point's master runs with this shared span
    /// profiler attached and each point is timed as a
    /// [`soctrace::SpanKind::SweepPoint`] span; workers aggregate into
    /// the one report through the `Arc<Mutex<_>>` sink. Wall-time
    /// observability only — results stay bit-identical.
    pub profile: Option<ArcSharedSink<ProfileReport>>,
    /// When `true`, the sweep statically verifies the base spec once
    /// before evaluating any point and fails fast with
    /// [`BuildEstimatorError::Unverifiable`] on error-severity
    /// findings. One check covers every point: liveness structure is
    /// invariant under the re-mappings and re-prioritisations a sweep
    /// explores. Off by default (sweeps of trusted specs pay nothing).
    pub verify_first: bool,
    /// When set, every point's master runs with a private
    /// [`soctrace::PowerTimelineSink`] attached and the point's
    /// peak-window power lands in
    /// [`SweepStats::point_peak_power_w`], turning a sweep's scalar
    /// energy ranking into an energy *and* transient-peak ranking.
    /// Observability only — results stay bit-identical.
    pub timeline: Option<TimelineOptions>,
}

impl ExploreOptions {
    /// One worker, base watchdog: the sweep evaluates its points one by
    /// one in enumeration order (still channel-collected, still
    /// index-ordered).
    pub fn serial() -> Self {
        ExploreOptions::with_workers(1)
    }

    /// A fixed worker count (clamped up to at least 1).
    pub fn with_workers(workers: usize) -> Self {
        ExploreOptions {
            workers: NonZeroUsize::new(workers).unwrap_or(NonZeroUsize::MIN),
            watchdog: None,
            profile: None,
            verify_first: false,
            timeline: None,
        }
    }

    /// Returns a copy with the given per-point watchdog budgets.
    pub fn guarded(mut self, watchdog: desim::WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Returns a copy with the given shared span profiler attached to
    /// every point's master.
    pub fn profiled(mut self, sink: ArcSharedSink<ProfileReport>) -> Self {
        self.profile = Some(sink);
        self
    }

    /// Returns a copy that statically verifies the spec before the
    /// sweep starts (see [`ExploreOptions::verify_first`]).
    pub fn verified(mut self) -> Self {
        self.verify_first = true;
        self
    }

    /// Returns a copy that captures a per-point power timeline and
    /// reports each point's peak-window power (see
    /// [`ExploreOptions::timeline`]).
    pub fn with_timeline(mut self, timeline: TimelineOptions) -> Self {
        self.timeline = Some(timeline);
        self
    }
}

impl Default for ExploreOptions {
    /// All the parallelism the host offers (1 when it cannot tell).
    fn default() -> Self {
        ExploreOptions::with_workers(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }
}

/// Aggregate metrics of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Points in the returned result (skipped/infeasible points excluded).
    pub points: usize,
    /// Wall-clock time of the whole sweep, milliseconds.
    pub wall_ms: f64,
    /// Sweep throughput, points per second.
    pub points_per_sec: f64,
    /// How many returned points carry a degraded (budget-tripped) report.
    pub degraded: usize,
    /// Worker threads actually used (after clamping to the point count).
    pub workers: usize,
    /// Per-point evaluation wall-clock, milliseconds, aligned with the
    /// returned points.
    pub point_wall_ms: Vec<f64>,
    /// Per-point peak-window power, watts, aligned with the returned
    /// points. Empty unless [`ExploreOptions::timeline`] is set.
    pub point_peak_power_w: Vec<f64>,
}

/// A sweep's result: the points (bit-identical at every worker count)
/// plus the throughput metrics.
#[derive(Debug, Clone)]
pub struct SweepReport<T> {
    /// The evaluated points, in work-list (enumeration) order.
    pub points: Vec<T>,
    /// Sweep metrics.
    pub stats: SweepStats,
}

/// Evaluates `total` independent work items on a scoped worker pool and
/// returns `(point, eval_ms)` pairs in index order. `eval` returning
/// `Ok(None)` marks an absent (skipped) point; an `Err` cancels indices
/// above it and the lowest-indexed error is propagated (see module docs).
///
/// The sweep holds a [`gatesim::FiringMemoScope`] throughout, and each
/// worker one on its own thread: the points replay the same hardware
/// firings, so each distinct firing is simulated once and later points
/// copy its result bit for bit. The caller's scope keeps the memo until
/// the sweep returns.
fn run_indexed<T, F>(
    total: usize,
    workers: NonZeroUsize,
    eval: F,
) -> Result<(Vec<(T, f64)>, usize), BuildEstimatorError>
where
    T: Send,
    F: Fn(usize) -> Result<Option<T>, BuildEstimatorError> + Sync,
{
    type Slot<T> = Option<Result<Option<(T, f64)>, BuildEstimatorError>>;
    let _memo = gatesim::FiringMemoScope::enter();
    let workers = workers.get().min(total.max(1));
    let next = AtomicUsize::new(0);
    let min_err = AtomicUsize::new(usize::MAX);
    let (tx, rx) = mpsc::channel();
    thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, min_err, eval) = (&next, &min_err, &eval);
            s.spawn(move || {
                let _memo = gatesim::FiringMemoScope::enter();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // Indices are claimed in increasing order, so once one
                    // is past the end or above a known failure, all later
                    // claims would be too: stop this worker.
                    if i >= total || i > min_err.load(Ordering::Acquire) {
                        break;
                    }
                    let t0 = Instant::now();
                    let out = match eval(i) {
                        Ok(point) => Ok(point.map(|p| (p, t0.elapsed().as_secs_f64() * 1e3))),
                        Err(e) => {
                            min_err.fetch_min(i, Ordering::AcqRel);
                            Err(e)
                        }
                    };
                    if tx.send((i, out)).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Slot<T>> = std::iter::repeat_with(|| None).take(total).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    let mut items = Vec::with_capacity(total);
    for slot in slots {
        match slot {
            Some(Ok(Some(item))) => items.push(item),
            Some(Ok(None)) | None => {} // skipped, or cancelled past an error
            Some(Err(e)) => return Err(e),
        }
    }
    Ok((items, workers))
}

/// Wraps collected items, timings and per-point peaks into a
/// [`SweepReport`].
fn finish<T>(
    items: Vec<((T, Option<f64>), f64)>,
    t0: Instant,
    workers: usize,
    report_of: impl Fn(&T) -> &CoSimReport,
) -> SweepReport<T> {
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut points = Vec::with_capacity(items.len());
    let mut point_wall_ms = Vec::with_capacity(items.len());
    let mut point_peak_power_w = Vec::new();
    for ((point, peak), ms) in items {
        points.push(point);
        point_wall_ms.push(ms);
        if let Some(w) = peak {
            point_peak_power_w.push(w);
        }
    }
    let degraded = points
        .iter()
        .filter(|p| report_of(p).outcome.is_degraded())
        .count();
    let points_per_sec = if wall_ms > 0.0 {
        points.len() as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    SweepReport {
        stats: SweepStats {
            points: points.len(),
            wall_ms,
            points_per_sec,
            degraded,
            workers,
            point_wall_ms,
            point_peak_power_w,
        },
        points,
    }
}

/// The steps every sweep shares around its work list of `total`
/// points: the optional verify gate, the watchdog override, the worker
/// pool, and the timing. `eval(config, i)` evaluates index `i` under
/// the base configuration with the override applied.
fn sweep<T, F>(
    soc: &SocDescription,
    base: &CoSimConfig,
    total: usize,
    options: &ExploreOptions,
    report_of: impl Fn(&T) -> &CoSimReport,
    eval: F,
) -> Result<SweepReport<T>, BuildEstimatorError>
where
    T: Send,
    F: Fn(&CoSimConfig, usize) -> Result<Option<(T, Option<f64>)>, BuildEstimatorError> + Sync,
{
    if options.verify_first {
        crate::verify::gate(crate::verify::verify_soc(soc))?;
    }
    let config = match &options.watchdog {
        Some(w) => base.with_watchdog(w.clone()),
        None => base.clone(),
    };
    let t0 = Instant::now();
    let (items, workers) = run_indexed(total, options.workers, |i| eval(&config, i))?;
    Ok(finish(items, t0, workers, report_of))
}

/// Sweeps the communication-architecture design space (§5.3, Fig. 7):
/// every priority permutation of `prioritized_procs` × every DMA size
/// in `dma_sizes`, permutation-major, over `options.workers` threads.
///
/// Priorities are assigned in descending order along each permutation
/// (first process gets the highest priority). An empty
/// `prioritized_procs` is one order that keeps the base priorities.
///
/// # Errors
///
/// Rejects more than 8 prioritized processes (8! = 40 320 orders) with
/// [`BuildEstimatorError::InvalidParams`] before enumerating any order,
/// and otherwise returns the lowest-enumeration-order
/// [`BuildEstimatorError`].
pub fn explore_bus_architecture_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    prioritized_procs: &[ProcId],
    dma_sizes: &[u32],
    options: &ExploreOptions,
) -> Result<SweepReport<ExplorationPoint>, BuildEstimatorError> {
    check_priority_count(prioritized_procs)?;
    let perms = permutations(prioritized_procs);
    let total = perms.len() * dma_sizes.len();
    sweep(soc, base, total, options, |p: &ExplorationPoint| &p.report, |config, i| {
        let perm = &perms[i / dma_sizes.len()];
        let dma = dma_sizes[i % dma_sizes.len()];
        eval_bus_point(soc, config, perm, dma, options.profile.as_ref(), options.timeline)
            .map(Some)
    })
}

/// Evaluates every 2^n HW/SW partition of `movable` (§5.2 mentions
/// using the tool "to rank several different HW/SW partitions").
/// Processes not listed keep their original mapping.
///
/// Partitions whose hardware mapping fails to synthesize (e.g.
/// processes using division) are absent from the result, mirroring a
/// real flow's infeasible designs.
///
/// # Errors
///
/// Rejects more than 16 movable processes with
/// [`BuildEstimatorError::InvalidParams`], and propagates the
/// lowest-enumeration-order build failure that is not a synthesis
/// infeasibility.
pub fn explore_partitions_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    movable: &[ProcId],
    options: &ExploreOptions,
) -> Result<SweepReport<PartitionPoint>, BuildEstimatorError> {
    check_partition_count(movable)?;
    sweep(soc, base, 1 << movable.len(), options, |p: &PartitionPoint| &p.report, |config, i| {
        eval_partition_point(
            soc,
            config,
            movable,
            i as u32,
            options.profile.as_ref(),
            options.timeline,
        )
    })
}

/// Sweeps power-management policies (operating-point assignments ×
/// gating rules): one co-simulation per policy, in slice order — the
/// exploration knob that widens §5.3's architecture sweep to the power
/// axis. Leakage spans settle in simulation order inside each
/// single-threaded point, so worker scheduling cannot reorder any float
/// accumulation.
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`],
/// including policy-validation failures (unknown component names,
/// out-of-range operating points).
pub fn explore_power_policies_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    policies: &[crate::powermgmt::PowerPolicy],
    options: &ExploreOptions,
) -> Result<SweepReport<PowerPoint>, BuildEstimatorError> {
    sweep(soc, base, policies.len(), options, |p: &PowerPoint| &p.report, |config, i| {
        eval_power_point(soc, config, &policies[i], options.profile.as_ref(), options.timeline)
            .map(Some)
    })
}

/// Sweeps a fault matrix: one co-simulation per `(label, plan)`
/// scenario, in slice order. Each point is an independent run of the
/// same system under a different declarative fault plan, so the sweep
/// ranks the design's energy behaviour across its failure modes (the
/// fault-injection counterpart of §5.3's architecture sweep), with every
/// point's provenance partition intact.
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`],
/// including fault plans naming unknown events or processes.
pub fn explore_fault_matrix_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    scenarios: &[(String, FaultPlan)],
    options: &ExploreOptions,
) -> Result<SweepReport<FaultPoint>, BuildEstimatorError> {
    sweep(soc, base, scenarios.len(), options, |p: &FaultPoint| &p.report, |config, i| {
        let (label, plan) = &scenarios[i];
        eval_fault_point(soc, config, label, plan, options.profile.as_ref(), options.timeline)
            .map(Some)
    })
}

/// Monte-Carlo sweep over stimulus variants: one co-simulation per
/// seed, each driving [`stimulus_variant`](crate::stimulus_variant)'s
/// deterministically jittered copy of the base stimulus. The spread of
/// the per-point energies estimates how sensitive the design's power is
/// to arrival times and payloads — the system-level sibling of the
/// gate-level Monte-Carlo lanes in [`crate::run_lane_sweep`].
///
/// # Errors
///
/// Returns the lowest-enumeration-order [`BuildEstimatorError`].
pub fn explore_stimulus_seeds_parallel(
    soc: &SocDescription,
    base: &CoSimConfig,
    seeds: &[u64],
    jitter: &StimulusJitter,
    options: &ExploreOptions,
) -> Result<SweepReport<StimulusPoint>, BuildEstimatorError> {
    sweep(soc, base, seeds.len(), options, |p: &StimulusPoint| &p.report, |config, i| {
        eval_stimulus_point(
            soc,
            config,
            seeds[i],
            jitter,
            options.profile.as_ref(),
            options.timeline,
        )
        .map(Some)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::{Cfg, Cfsm, EventDef, EventOccurrence, Expr, Implementation, Network, Stmt};

    /// A three-process SOC with shared-memory traffic so priorities and
    /// DMA sizes have real energy consequences.
    fn sweep_soc() -> SocDescription {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let ack = nb.event(EventDef::valued("ACK"));
        for (name, mapping) in [
            ("alpha", Implementation::Sw),
            ("beta", Implementation::Hw),
            ("gamma", Implementation::Hw),
        ] {
            let mut mb = Cfsm::builder(name);
            let s = mb.state("s");
            let v = mb.var("v", 0);
            mb.transition(
                s,
                vec![go],
                None,
                Cfg::straight_line(vec![
                    Stmt::Assign {
                        var: v,
                        expr: Expr::add(Expr::Var(v), Expr::Const(2)),
                    },
                    Stmt::MemWrite {
                        addr: Expr::Const(16),
                        value: Expr::Var(v),
                    },
                    Stmt::Emit {
                        event: ack,
                        value: Some(Expr::Var(v)),
                    },
                ]),
                s,
            );
            nb.process(mb.finish().expect("valid machine"), mapping);
        }
        SocDescription {
            name: "sweep".into(),
            network: nb.finish().expect("valid network"),
            stimulus: (0..4).map(|i| (i * 8_000, EventOccurrence::pure(go))).collect(),
            priorities: vec![1, 2, 3],
        }
    }

    fn points_bitwise_equal(a: &[ExplorationPoint], b: &[ExplorationPoint]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.dma_block_size == y.dma_block_size
                    && x.priorities == y.priorities
                    && x.label == y.label
                    && x.report.golden_snapshot() == y.report.golden_snapshot()
            })
    }

    /// The sweeps' oracle: one point's configuration run standalone,
    /// outside any firing-memo scope, so it simulates every firing.
    fn standalone(soc: SocDescription, config: CoSimConfig) -> String {
        crate::master::CoSimulator::new(soc, config)
            .expect("system builds")
            .run()
            .golden_snapshot()
    }

    fn assert_snapshots<T>(points: &[T], want: &[String], report_of: impl Fn(&T) -> &CoSimReport) {
        assert_eq!(points.len(), want.len());
        for (i, (p, w)) in points.iter().zip(want).enumerate() {
            assert_eq!(&report_of(p).golden_snapshot(), w, "point {i} diverged");
        }
    }

    #[test]
    fn bus_sweep_matches_standalone_runs_at_every_worker_count() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let dmas = [2u32, 8, 32];
        let mut want = Vec::new();
        for perm in permutations(&procs) {
            for &dma in &dmas {
                let mut variant = soc.clone();
                for (rank, &p) in perm.iter().enumerate() {
                    variant.set_priority(p, (perm.len() - rank) as u8);
                }
                want.push(standalone(variant, config.with_dma_block_size(dma)));
            }
        }
        let serial = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &dmas,
            &ExploreOptions::serial(),
        )
        .expect("serial");
        assert_snapshots(&serial.points, &want, |p| &p.report);
        for workers in [2usize, 5] {
            let par = explore_bus_architecture_parallel(
                &soc,
                &config,
                &procs,
                &dmas,
                &ExploreOptions::with_workers(workers),
            )
            .expect("parallel");
            assert!(
                points_bitwise_equal(&serial.points, &par.points),
                "divergence at workers = {workers}"
            );
            assert_eq!(par.stats.points, want.len());
            assert_eq!(par.stats.degraded, 0);
            assert_eq!(par.stats.point_wall_ms.len(), want.len());
            assert!(par.stats.wall_ms > 0.0 && par.stats.points_per_sec > 0.0);
        }
    }

    #[test]
    fn partition_sweep_matches_standalone_runs() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let movable: Vec<ProcId> = soc.network.process_ids().take(2).collect();
        let want: Vec<String> = (0..4u32)
            .map(|bits| {
                let mut variant = soc.clone();
                for (k, &p) in movable.iter().enumerate() {
                    let m = if bits >> k & 1 == 1 {
                        Implementation::Hw
                    } else {
                        Implementation::Sw
                    };
                    variant.network.set_mapping(p, m);
                }
                standalone(variant, config.clone())
            })
            .collect();
        for workers in [1usize, 4] {
            let par = explore_partitions_parallel(
                &soc,
                &config,
                &movable,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_snapshots(&par.points, &want, |p| &p.report);
            assert_eq!(par.points[3].label, "alpha=HW beta=HW");
            assert_eq!(par.points[3].mapping, vec![Implementation::Hw; 3]);
        }
    }

    #[test]
    fn power_sweep_matches_standalone_runs() {
        use crate::powermgmt::{GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy};
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let policies = vec![
            PowerPolicy::none(),
            PowerPolicy::named("leaky").with_leakage(LeakageModel::with_default_rate(1.0e-3)),
            PowerPolicy::named("gated")
                .with_leakage(LeakageModel::with_default_rate(1.0e-3))
                .gate("alpha", GatingPolicy::clock(200))
                .gate("beta", GatingPolicy::power(400, 1.0e-6, 5)),
            PowerPolicy::named("dvfs")
                .with_operating_point(OperatingPoint::new("low", 0.8, 0.5))
                .dvfs("gamma", 0),
        ];
        let want: Vec<String> = policies
            .iter()
            .map(|p| standalone(soc.clone(), config.with_power_policy(p.clone())))
            .collect();
        for workers in [1usize, 3] {
            let par = explore_power_policies_parallel(
                &soc,
                &config,
                &policies,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_snapshots(&par.points, &want, |p| &p.report);
            for (p, policy) in par.points.iter().zip(&policies) {
                assert_eq!(p.policy_name, policy.name);
            }
        }
    }

    #[test]
    fn fault_matrix_matches_standalone_runs() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let scenarios: Vec<(String, FaultPlan)> = vec![
            ("clean".into(), FaultPlan::new()),
            ("drop_go".into(), FaultPlan::new().drop_event(1, "GO")),
            (
                "dup_ack+stall".into(),
                FaultPlan::new().duplicate_event(8_500, "ACK").stall_bus(9_000, 1_500),
            ),
        ];
        let want: Vec<String> = scenarios
            .iter()
            .map(|(_, plan)| standalone(soc.clone(), config.with_faults(plan.clone())))
            .collect();
        for workers in [1usize, 3] {
            let par = explore_fault_matrix_parallel(
                &soc,
                &config,
                &scenarios,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_snapshots(&par.points, &want, |p| &p.report);
            for (point, (label, _)) in par.points.iter().zip(&scenarios) {
                assert_eq!(&point.label, label);
                // The provenance partition stays exact even on faulted
                // trajectories.
                point.report.verify_provenance().expect("exact partition");
            }
        }
    }

    #[test]
    fn stimulus_sweep_matches_standalone_runs() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let jitter = StimulusJitter { time: 500, value: 3 };
        let seeds = [1u64, 2, 3, 4, 5];
        let want: Vec<String> = seeds
            .iter()
            .map(|&seed| standalone(crate::stimulus_variant(&soc, seed, &jitter), config.clone()))
            .collect();
        // Jitter genuinely perturbs the runs: not all seeds land on the
        // identical report.
        let distinct: std::collections::BTreeSet<&String> = want.iter().collect();
        assert!(distinct.len() > 1, "jitter changed nothing");
        for workers in [1usize, 4] {
            let par = explore_stimulus_seeds_parallel(
                &soc,
                &config,
                &seeds,
                &jitter,
                &ExploreOptions::with_workers(workers),
            )
            .expect("sweep");
            assert_snapshots(&par.points, &want, |p| &p.report);
            for (point, &seed) in par.points.iter().zip(&seeds) {
                assert_eq!(point.seed, seed);
                point.report.verify_provenance().expect("exact partition");
            }
        }
    }

    #[test]
    fn stimulus_variants_are_pure_in_the_seed() {
        let soc = sweep_soc();
        let jitter = StimulusJitter::default();
        for seed in [0u64, 9, 0xFFFF_FFFF_FFFF_FFFF] {
            let a = crate::stimulus_variant(&soc, seed, &jitter);
            let b = crate::stimulus_variant(&soc, seed, &jitter);
            assert_eq!(a.stimulus, b.stimulus, "seed {seed}");
            // Times stay sorted so the schedule is a valid stimulus.
            assert!(a.stimulus.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    #[test]
    fn watchdog_option_bounds_degraded_points_without_hanging() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let opts = ExploreOptions::with_workers(2).guarded(desim::WatchdogConfig {
            max_cycles: Some(10_000),
            ..desim::WatchdogConfig::unlimited()
        });
        let par = explore_bus_architecture_parallel(&soc, &config, &procs, &[4], &opts)
            .expect("sweep completes");
        assert_eq!(par.stats.points, par.points.len());
        assert_eq!(
            par.stats.degraded,
            par.points.iter().filter(|p| p.report.outcome.is_degraded()).count()
        );
        // The stimulus runs to cycle 24_000, so a 10_000-cycle budget
        // must degrade every point rather than hang any of them.
        assert_eq!(par.stats.degraded, par.stats.points);
    }

    #[test]
    fn worker_errors_propagate_as_the_single_worker_error() {
        let soc = sweep_soc();
        // A fault plan naming an unknown event fails CoSimulator::new
        // with a typed error at every point of the sweep.
        let config = CoSimConfig::date2000_defaults()
            .with_faults(crate::faults::FaultPlan::new().drop_event(1, "NO_SUCH_EVENT"));
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let serial_err = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[2, 8],
            &ExploreOptions::serial(),
        )
        .expect_err("serial fails");
        let par_err = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[2, 8],
            &ExploreOptions::with_workers(3),
        )
        .expect_err("parallel fails");
        assert_eq!(format!("{serial_err}"), format!("{par_err}"));
    }

    #[test]
    fn empty_work_list_yields_empty_sweep() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let par = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &[],
            &ExploreOptions::default(),
        )
        .expect("empty sweep");
        assert!(par.points.is_empty());
        assert_eq!(par.stats.points, 0);
    }

    #[test]
    fn timeline_option_adds_peak_column_without_perturbing_results() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let procs: Vec<ProcId> = soc.network.process_ids().collect();
        let dmas = [2u32, 16];
        let plain = explore_bus_architecture_parallel(
            &soc,
            &config,
            &procs,
            &dmas,
            &ExploreOptions::serial(),
        )
        .expect("plain sweep");
        assert!(plain.stats.point_peak_power_w.is_empty());
        let mut peaks_by_workers: Vec<Vec<f64>> = Vec::new();
        for workers in [1usize, 3] {
            let opts =
                ExploreOptions::with_workers(workers).with_timeline(TimelineOptions::new(500));
            let timed = explore_bus_architecture_parallel(&soc, &config, &procs, &dmas, &opts)
                .expect("timeline sweep");
            // One peak per point, every peak physical, and the reports
            // bit-identical to the sink-free sweep.
            assert_eq!(timed.stats.point_peak_power_w.len(), timed.points.len());
            assert!(timed.stats.point_peak_power_w.iter().all(|p| p.is_finite() && *p > 0.0));
            assert!(points_bitwise_equal(&plain.points, &timed.points));
            peaks_by_workers.push(timed.stats.point_peak_power_w.clone());
        }
        // The peak column itself is deterministic across worker counts.
        let bits = |v: &Vec<f64>| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&peaks_by_workers[0]), bits(&peaks_by_workers[1]));
    }

    #[test]
    fn options_constructors() {
        assert_eq!(ExploreOptions::serial().workers.get(), 1);
        assert_eq!(ExploreOptions::with_workers(0).workers.get(), 1);
        assert_eq!(ExploreOptions::with_workers(6).workers.get(), 6);
        assert!(ExploreOptions::default().workers.get() >= 1);
        let guarded = ExploreOptions::serial().guarded(desim::WatchdogConfig {
            max_events: Some(10),
            ..desim::WatchdogConfig::unlimited()
        });
        assert!(guarded.watchdog.is_some());
    }
}
