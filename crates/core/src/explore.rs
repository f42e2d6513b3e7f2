//! Design-space sweeps (§5.3 of the paper) on a scoped worker pool.
//!
//! The co-estimation tool exists to be called *iteratively*: Fig. 7
//! sweeps all meaningful assignments of bus/RTOS priorities and DMA
//! block sizes for the TCP/IP subsystem (6 × 8 = 48 points) and picks the
//! minimum-energy configuration, and a sweep is only as useful as its
//! latency. Every point of a sweep is an independent co-simulation, so
//! the engine enumerates the whole work list up front, hands indices to
//! `std::thread::scope` workers through an atomic cursor, collects
//! `(index, result)` pairs over an `mpsc` channel, and reassembles the
//! output in index order. Each sweep has one entry point;
//! [`ExploreOptions::serial`] runs it on a single worker.
//!
//! # Determinism contract
//!
//! The reassembled `Vec` is **bit-for-bit identical** at every worker
//! count, and each point equals a standalone [`CoSimulator`] run of its
//! configuration:
//!
//! * each index denotes exactly one `(configuration, simulation)`;
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
use crate::master::CoSimulator;
use crate::report::CoSimReport;
use cfsm::{Implementation, ProcId};
use detrand::Rng;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

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
    /// When `true`, the sweep statically verifies the base spec once
    /// before evaluating any point and fails fast with
    /// [`BuildEstimatorError::Unverifiable`] on error-severity
    /// findings. One check covers every point: liveness structure is
    /// invariant under the re-mappings and re-prioritisations a sweep
    /// explores. Off by default (sweeps of trusted specs pay nothing).
    pub verify_first: bool,
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
            verify_first: false,
        }
    }

    /// Returns a copy with the given per-point watchdog budgets.
    pub fn guarded(mut self, watchdog: desim::WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Returns a copy that statically verifies the spec before the
    /// sweep starts (see [`ExploreOptions::verify_first`]).
    pub fn verified(mut self) -> Self {
        self.verify_first = true;
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

/// The steps every sweep shares around its work list of `total`
/// points: the optional verify gate, the watchdog override, the worker
/// pool, and the metrics. `eval(config, i)` evaluates index `i` under
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
    F: Fn(&CoSimConfig, usize) -> Result<Option<T>, BuildEstimatorError> + Sync,
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
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (points, point_wall_ms): (Vec<T>, Vec<f64>) = items.into_iter().unzip();
    let degraded = points
        .iter()
        .filter(|p| report_of(p).outcome.is_degraded())
        .count();
    let points_per_sec = if wall_ms > 0.0 {
        points.len() as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    Ok(SweepReport {
        stats: SweepStats {
            points: points.len(),
            wall_ms,
            points_per_sec,
            degraded,
            workers,
            point_wall_ms,
        },
        points,
    })
}

/// Runs one point's co-simulation.
fn run_point(soc: SocDescription, config: CoSimConfig) -> Result<CoSimReport, BuildEstimatorError> {
    Ok(CoSimulator::new(soc, config)?.run())
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// DMA block size used.
    pub dma_block_size: u32,
    /// The priority assignment: `(process, priority)` pairs.
    pub priorities: Vec<(ProcId, u8)>,
    /// Human-readable label of the priority order.
    pub label: String,
    /// The full co-estimation report.
    pub report: CoSimReport,
}

impl ExplorationPoint {
    /// Total energy of this configuration, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// All permutations of the given items (Heap's algorithm, deterministic
/// order). The degenerate inputs have exactly one permutation each:
/// `permutations(&[])` is `[[]]` (0! = 1) and a single element yields
/// itself — handled explicitly rather than through the recursion's
/// fall-through.
pub fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    fn heap<T: Clone>(arr: &mut Vec<T>, k: usize, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            heap(arr, k - 1, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr = items.to_vec();
    let mut out = Vec::new();
    let k = arr.len();
    heap(&mut arr, k, &mut out);
    out
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
/// Rejects more than 8 prioritized processes (8! = 40 320 orders, and
/// past 255 the `u8` priorities would wrap) with
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
    if prioritized_procs.len() > 8 {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "{} prioritized processes is too many for an exhaustive n! priority sweep (max 8)",
            prioritized_procs.len()
        )));
    }
    let perms = permutations(prioritized_procs);
    let total = perms.len() * dma_sizes.len();
    sweep(
        soc,
        base,
        total,
        options,
        |p: &ExplorationPoint| &p.report,
        |config, i| {
            let perm = &perms[i / dma_sizes.len()];
            let dma = dma_sizes[i % dma_sizes.len()];
            let mut soc_variant = soc.clone();
            let n = perm.len() as u8;
            let mut priorities = Vec::with_capacity(perm.len());
            let mut label_parts = Vec::with_capacity(perm.len());
            for (rank, &p) in perm.iter().enumerate() {
                let pri = n - rank as u8; // descending
                soc_variant.set_priority(p, pri);
                priorities.push((p, pri));
                label_parts.push(soc.network.cfsm(p).name().to_string());
            }
            let report = run_point(soc_variant, config.with_dma_block_size(dma))?;
            Ok(Some(ExplorationPoint {
                dma_block_size: dma,
                priorities,
                label: label_parts.join(" > "),
                report,
            }))
        },
    )
}

/// The minimum-energy point of an exploration.
pub fn minimum_energy(points: &[ExplorationPoint]) -> Option<&ExplorationPoint> {
    points
        .iter()
        .min_by(|a, b| a.energy_j().total_cmp(&b.energy_j()))
}

/// One evaluated HW/SW partition.
#[derive(Debug, Clone)]
pub struct PartitionPoint {
    /// The mapping of each process, in process-id order.
    pub mapping: Vec<Implementation>,
    /// Human-readable label, e.g. `create_pack=SW checksum=HW`.
    pub label: String,
    /// The full co-estimation report.
    pub report: CoSimReport,
}

impl PartitionPoint {
    /// Total energy of this partition, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// Evaluates every 2^n HW/SW partition of `movable` (§5.2 mentions
/// using the tool "to rank several different HW/SW partitions"):
/// partition `bits` maps `movable[k]` to hardware when bit `k` is set.
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
    if movable.len() > 16 {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "{} movable processes is too many for an exhaustive 2^n partition sweep (max 16)",
            movable.len()
        )));
    }
    sweep(
        soc,
        base,
        1 << movable.len(),
        options,
        |p: &PartitionPoint| &p.report,
        |config, bits| {
            let mut soc_variant = soc.clone();
            let mut label_parts = Vec::with_capacity(movable.len());
            for (k, &p) in movable.iter().enumerate() {
                let m = if bits >> k & 1 == 1 {
                    Implementation::Hw
                } else {
                    Implementation::Sw
                };
                soc_variant.network.set_mapping(p, m);
                label_parts.push(format!("{}={}", soc.network.cfsm(p).name(), m));
            }
            let mapping = soc_variant
                .network
                .process_ids()
                .map(|p| soc_variant.network.mapping(p))
                .collect();
            match run_point(soc_variant, config.clone()) {
                Ok(report) => Ok(Some(PartitionPoint {
                    mapping,
                    label: label_parts.join(" "),
                    report,
                })),
                Err(BuildEstimatorError::Synth(_, _)) => Ok(None), // infeasible in HW
                Err(e) => Err(e),
            }
        },
    )
}

/// One evaluated power-management policy.
#[derive(Debug, Clone)]
pub struct PowerPoint {
    /// The policy's name (its sweep label).
    pub policy_name: String,
    /// The full co-estimation report (its `power` section carries the
    /// state residency and per-technique savings).
    pub report: CoSimReport,
}

impl PowerPoint {
    /// Total energy of this policy, joules (dynamic + leakage + wake
    /// overhead — everything the ledger booked).
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }

    /// Net energy this policy saved versus running the same schedule
    /// all-Active (per-technique savings minus wake overhead), joules.
    /// Zero for the noop policy.
    pub fn net_saved_j(&self) -> f64 {
        self.report
            .power
            .as_ref()
            .map(|p| p.savings.net_saved_j())
            .unwrap_or(0.0)
    }
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
    sweep(
        soc,
        base,
        policies.len(),
        options,
        |p: &PowerPoint| &p.report,
        |config, i| {
            let policy = &policies[i];
            let report = run_point(soc.clone(), config.with_power_policy(policy.clone()))?;
            Ok(Some(PowerPoint {
                policy_name: policy.name.clone(),
                report,
            }))
        },
    )
}

/// How a Monte-Carlo stimulus variant perturbs the base stimulus.
#[derive(Debug, Clone)]
pub struct StimulusJitter {
    /// Maximum absolute per-event time shift, simulation cycles (the
    /// drawn shift is uniform in `-time..=time`; shifted times saturate
    /// at zero and the schedule is re-sorted).
    pub time: u64,
    /// Maximum absolute perturbation of valued events' payloads
    /// (uniform in `-value..=value`).
    pub value: i64,
}

impl Default for StimulusJitter {
    /// ±1000 cycles of arrival jitter, ±4 on event payloads.
    fn default() -> Self {
        StimulusJitter {
            time: 1_000,
            value: 4,
        }
    }
}

/// One evaluated Monte-Carlo stimulus variant.
#[derive(Debug, Clone)]
pub struct StimulusPoint {
    /// The variant's stimulus seed.
    pub seed: u64,
    /// The full co-estimation report of the perturbed run.
    pub report: CoSimReport,
}

impl StimulusPoint {
    /// Total energy of this stimulus variant, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// The deterministic stimulus variant of `seed` that
/// [`explore_stimulus_seeds_parallel`] evaluates: every event's arrival
/// time and payload perturbed by a `detrand` stream. Pure in
/// `(soc, seed, jitter)`, so every worker count (and any standalone
/// re-run) evaluates the identical schedule for a given seed.
pub fn stimulus_variant(
    soc: &SocDescription,
    seed: u64,
    jitter: &StimulusJitter,
) -> SocDescription {
    let mut rng = Rng::new(seed ^ 0x4D43_5354_494D_0001); // domain-separated
    let mut variant = soc.clone();
    for (time, occurrence) in &mut variant.stimulus {
        let dt = rng.i64_in(-(jitter.time as i64), jitter.time as i64 + 1);
        *time = time.saturating_add_signed(dt);
        if let Some(v) = &mut occurrence.value {
            *v = v.wrapping_add(rng.i64_in(-jitter.value, jitter.value + 1));
        }
    }
    // Stable sort: events shifted onto the same cycle keep their
    // original relative order.
    variant.stimulus.sort_by_key(|&(t, _)| t);
    variant
}

/// Monte-Carlo sweep over stimulus variants: one co-simulation per
/// seed, each driving [`stimulus_variant`]'s deterministically jittered
/// copy of the base stimulus. The spread of the per-point energies
/// estimates how sensitive the design's power is to arrival times and
/// payloads — the system-level sibling of the gate-level Monte-Carlo
/// lanes in [`crate::run_lane_sweep`].
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
    sweep(
        soc,
        base,
        seeds.len(),
        options,
        |p: &StimulusPoint| &p.report,
        |config, i| {
            let seed = seeds[i];
            let report = run_point(stimulus_variant(soc, seed, jitter), config.clone())?;
            Ok(Some(StimulusPoint { seed, report }))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsm::{BinOp, Cfg, Cfsm, EventDef, EventOccurrence, Expr, Network, Stmt};

    #[test]
    fn permutation_counts_match_factorials() {
        fn factorial(n: usize) -> usize {
            (1..=n).product()
        }
        for n in 0..=5usize {
            let items: Vec<usize> = (0..n).collect();
            let ps = permutations(&items);
            assert_eq!(ps.len(), factorial(n), "n = {n}");
            let mut sorted = ps.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), factorial(n), "n = {n} has duplicates");
            for p in &ps {
                let mut q = p.clone();
                q.sort_unstable();
                assert_eq!(q, items, "n = {n} permutation {p:?} is not a permutation");
            }
        }
    }

    #[test]
    fn permutations_of_empty_slice_is_single_empty() {
        let ps = permutations::<u32>(&[]);
        assert_eq!(ps, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn permutations_of_single_element() {
        assert_eq!(permutations(&[7]), vec![vec![7]]);
    }

    #[test]
    fn permutations_deterministic() {
        for items in [
            vec![],
            vec!['a'],
            vec!['a', 'b', 'c'],
            vec!['a', 'b', 'c', 'd'],
        ] {
            assert_eq!(permutations(&items), permutations(&items));
        }
    }

    /// A two-process SOC whose `divider` process uses division — which
    /// has no hardware implementation — plus a synthesizable `adder`.
    fn divider_soc() -> SocDescription {
        let mut nb = Network::builder();
        let go = nb.event(EventDef::pure("GO"));
        let mut div = Cfsm::builder("divider");
        let s = div.state("s");
        let v = div.var("v", 100);
        div.transition(
            s,
            vec![go],
            None,
            Cfg::straight_line(vec![Stmt::Assign {
                var: v,
                expr: Expr::bin(BinOp::Div, Expr::Var(v), Expr::Const(2)),
            }]),
            s,
        );
        nb.process(div.finish().expect("valid machine"), Implementation::Sw);
        let mut add = Cfsm::builder("adder");
        let t = add.state("t");
        let w = add.var("w", 0);
        add.transition(
            t,
            vec![go],
            None,
            Cfg::straight_line(vec![Stmt::Assign {
                var: w,
                expr: Expr::add(Expr::Var(w), Expr::Const(1)),
            }]),
            t,
        );
        nb.process(add.finish().expect("valid machine"), Implementation::Sw);
        SocDescription {
            name: "divider".into(),
            network: nb.finish().expect("valid network"),
            stimulus: (0..3)
                .map(|i| (i * 5_000, EventOccurrence::pure(go)))
                .collect(),
            priorities: vec![1, 1],
        }
    }

    fn serial_partitions(
        soc: &SocDescription,
        movable: &[ProcId],
    ) -> Result<Vec<PartitionPoint>, BuildEstimatorError> {
        let config = CoSimConfig::date2000_defaults();
        explore_partitions_parallel(soc, &config, movable, &ExploreOptions::serial())
            .map(|sweep| sweep.points)
    }

    #[test]
    fn partition_sweep_skips_infeasible_hw_mappings() {
        let soc = divider_soc();
        let divider = soc.network.process_by_name("divider").expect("exists");
        // Only the divider movable: HW mapping is infeasible, so exactly
        // 2^1 - 1 = 1 point survives — an absent point, not an error.
        let points = serial_partitions(&soc, &[divider]).expect("sweep succeeds");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].label, "divider=SW");
    }

    #[test]
    fn partition_sweep_point_count_is_power_of_two_minus_skipped() {
        let soc = divider_soc();
        let divider = soc.network.process_by_name("divider").expect("exists");
        let adder = soc.network.process_by_name("adder").expect("exists");
        // Both movable: the 2 partitions mapping the divider to HW are
        // skipped, so 2^2 - 2 = 2 points remain.
        let points = serial_partitions(&soc, &[divider, adder]).expect("sweep succeeds");
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.label.contains("divider=SW")));
    }

    #[test]
    fn too_many_movable_processes_is_a_typed_error() {
        let soc = divider_soc();
        let p = soc.network.process_by_name("adder").expect("exists");
        let err = serial_partitions(&soc, &[p; 17]);
        assert!(matches!(err, Err(BuildEstimatorError::InvalidParams(_))));
    }

    #[test]
    fn too_many_prioritized_processes_is_a_typed_error() {
        let soc = divider_soc();
        let p = soc.network.process_by_name("adder").expect("exists");
        let config = CoSimConfig::date2000_defaults();
        let sweep = |procs: &[ProcId]| {
            explore_bus_architecture_parallel(&soc, &config, procs, &[4], &ExploreOptions::serial())
        };
        // 9! orders are rejected before any is enumerated.
        let err = sweep(&[p; 9]);
        assert!(matches!(err, Err(BuildEstimatorError::InvalidParams(_))));
        // No prioritized process is one order: the base priorities.
        let base = sweep(&[]).expect("empty order list sweeps");
        assert_eq!(base.points.len(), 1);
        assert!(base.points[0].priorities.is_empty());
    }

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
            stimulus: (0..4)
                .map(|i| (i * 8_000, EventOccurrence::pure(go)))
                .collect(),
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
        CoSimulator::new(soc, config)
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
    fn stimulus_sweep_matches_standalone_runs() {
        let soc = sweep_soc();
        let config = CoSimConfig::date2000_defaults();
        let jitter = StimulusJitter {
            time: 500,
            value: 3,
        };
        let seeds = [1u64, 2, 3, 4, 5];
        let want: Vec<String> = seeds
            .iter()
            .map(|&seed| standalone(stimulus_variant(&soc, seed, &jitter), config.clone()))
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
            let a = stimulus_variant(&soc, seed, &jitter);
            let b = stimulus_variant(&soc, seed, &jitter);
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
            par.points
                .iter()
                .filter(|p| p.report.outcome.is_degraded())
                .count()
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
