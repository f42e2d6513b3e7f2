//! Design-space exploration driver (§5.3 of the paper).
//!
//! The co-estimation tool exists to be called *iteratively*: Fig. 7
//! sweeps all meaningful assignments of bus/RTOS priorities and DMA
//! block sizes for the TCP/IP subsystem (6 × 8 = 48 points) and picks the
//! minimum-energy configuration. This module holds the sweep points and
//! the per-point evaluators ([`eval_bus_point`], [`eval_partition_point`],
//! …); [`crate::explore_parallel`] enumerates each sweep's work list and
//! runs it, serially or on a worker pool.

use crate::config::{CoSimConfig, SocDescription};
use crate::estimator::BuildEstimatorError;
use crate::explore_parallel::TimelineOptions;
use crate::faults::FaultPlan;
use crate::master::CoSimulator;
use crate::report::CoSimReport;
use cfsm::ProcId;
use detrand::Rng;
use soctrace::{PowerTimelineSink, SharedSink, TimelineConfig};

/// Runs one sweep-point simulation, optionally attaching a per-point
/// power timeline whose peak-window power rides back with the report.
/// Tracing never perturbs results (observability only), so the sweeps
/// stay bit-identical with or without the sink.
fn run_point(
    sim: &mut CoSimulator,
    timeline: Option<TimelineOptions>,
    clock_hz: f64,
) -> (CoSimReport, Option<f64>) {
    let tl = timeline.map(|t| {
        let sink = SharedSink::new(PowerTimelineSink::new(TimelineConfig::new(
            t.window_cycles,
            clock_hz,
        )));
        sim.attach_trace(Box::new(sink.clone()));
        sink
    });
    let report = sim.run();
    let peak = tl.map(|sink| {
        let names = sim.component_names();
        sink.with(|s| s.report(&names, report.total_cycles).peak_power_w())
    });
    (report, peak)
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

/// Evaluates one point of the communication-architecture sweep: the
/// given priority permutation (descending priorities along `perm`) at
/// the given DMA block size.
pub(crate) fn eval_bus_point(
    soc: &SocDescription,
    base: &CoSimConfig,
    perm: &[ProcId],
    dma: u32,
    timeline: Option<TimelineOptions>,
) -> Result<(ExplorationPoint, Option<f64>), BuildEstimatorError> {
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
    let label = label_parts.join(" > ");
    let config = base.with_dma_block_size(dma);
    let clock_hz = config.clock_hz;
    let mut sim = CoSimulator::new(soc_variant, config)?;
    let (report, peak) = run_point(&mut sim, timeline, clock_hz);
    Ok((
        ExplorationPoint {
            dma_block_size: dma,
            priorities,
            label,
            report,
        },
        peak,
    ))
}

/// One evaluated HW/SW partition.
#[derive(Debug, Clone)]
pub struct PartitionPoint {
    /// The mapping of each process, in process-id order.
    pub mapping: Vec<cfsm::Implementation>,
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

/// Evaluates the partition selected by `bits` (bit `k` set maps
/// `movable[k]` to hardware). Returns `Ok(None)` when the hardware
/// mapping is infeasible (synthesis failure), mirroring a real flow's
/// infeasible designs.
pub(crate) fn eval_partition_point(
    soc: &SocDescription,
    config: &CoSimConfig,
    movable: &[ProcId],
    bits: u32,
    timeline: Option<TimelineOptions>,
) -> Result<Option<(PartitionPoint, Option<f64>)>, BuildEstimatorError> {
    use cfsm::Implementation;
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
    let label = label_parts.join(" ");
    match CoSimulator::new(soc_variant.clone(), config.clone()) {
        Ok(mut sim) => {
            let (report, peak) = run_point(&mut sim, timeline, config.clock_hz);
            Ok(Some((
                PartitionPoint {
                    mapping: soc_variant
                        .network
                        .process_ids()
                        .map(|p| soc_variant.network.mapping(p))
                        .collect(),
                    label,
                    report,
                },
                peak,
            )))
        }
        Err(BuildEstimatorError::Synth(_, _)) => Ok(None), // infeasible in HW
        Err(e) => Err(e),
    }
}

/// Guards the exhaustive-partition sweep's exponent.
pub(crate) fn check_partition_count(movable: &[ProcId]) -> Result<(), BuildEstimatorError> {
    if movable.len() > 16 {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "{} movable processes is too many for an exhaustive 2^n partition sweep (max 16)",
            movable.len()
        )));
    }
    Ok(())
}

/// Guards the bus sweep's n! priority orders, checked before any is
/// enumerated: 8 processes give 40 320 orders, and past 255 the `u8`
/// priorities would wrap.
pub(crate) fn check_priority_count(prioritized: &[ProcId]) -> Result<(), BuildEstimatorError> {
    if prioritized.len() > 8 {
        return Err(BuildEstimatorError::InvalidParams(format!(
            "{} prioritized processes is too many for an exhaustive n! priority sweep (max 8)",
            prioritized.len()
        )));
    }
    Ok(())
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

/// Evaluates one power-management policy on the base configuration.
pub(crate) fn eval_power_point(
    soc: &SocDescription,
    base: &CoSimConfig,
    policy: &crate::powermgmt::PowerPolicy,
    timeline: Option<TimelineOptions>,
) -> Result<(PowerPoint, Option<f64>), BuildEstimatorError> {
    let config = base.with_power_policy(policy.clone());
    let clock_hz = config.clock_hz;
    let mut sim = CoSimulator::new(soc.clone(), config)?;
    let (report, peak) = run_point(&mut sim, timeline, clock_hz);
    Ok((
        PowerPoint {
            policy_name: policy.name.clone(),
            report,
        },
        peak,
    ))
}

/// One evaluated fault scenario of a fault-matrix sweep.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// The scenario's label (its sweep name).
    pub label: String,
    /// The full co-estimation report of the faulted run — with the
    /// provenance partition intact ([`CoSimReport::verify_provenance`]
    /// holds on every point, faulted or not).
    pub report: CoSimReport,
}

impl FaultPoint {
    /// Total energy of this scenario, joules.
    pub fn energy_j(&self) -> f64 {
        self.report.total_energy_j()
    }
}

/// Evaluates one fault scenario on the base configuration.
pub(crate) fn eval_fault_point(
    soc: &SocDescription,
    base: &CoSimConfig,
    label: &str,
    plan: &FaultPlan,
    timeline: Option<TimelineOptions>,
) -> Result<(FaultPoint, Option<f64>), BuildEstimatorError> {
    let config = base.with_faults(plan.clone());
    let clock_hz = config.clock_hz;
    let mut sim = CoSimulator::new(soc.clone(), config)?;
    let (report, peak) = run_point(&mut sim, timeline, clock_hz);
    Ok((
        FaultPoint {
            label: label.to_string(),
            report,
        },
        peak,
    ))
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
/// [`explore_stimulus_seeds_parallel`](crate::explore_stimulus_seeds_parallel)
/// evaluates: every event's arrival time and payload perturbed by a
/// `detrand` stream. Pure in `(soc, seed, jitter)`, so every worker
/// count (and any standalone re-run) evaluates the identical schedule
/// for a given seed.
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

/// Evaluates one Monte-Carlo stimulus variant.
pub(crate) fn eval_stimulus_point(
    soc: &SocDescription,
    base: &CoSimConfig,
    seed: u64,
    jitter: &StimulusJitter,
    timeline: Option<TimelineOptions>,
) -> Result<(StimulusPoint, Option<f64>), BuildEstimatorError> {
    let variant = stimulus_variant(soc, seed, jitter);
    let mut sim = CoSimulator::new(variant, base.clone())?;
    let (report, peak) = run_point(&mut sim, timeline, base.clock_hz);
    Ok((StimulusPoint { seed, report }, peak))
}

/// The minimum-energy point of an exploration.
pub fn minimum_energy(points: &[ExplorationPoint]) -> Option<&ExplorationPoint> {
    points.iter().min_by(|a, b| a.energy_j().total_cmp(&b.energy_j()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExploreOptions;
    use cfsm::{BinOp, Cfg, Cfsm, EventDef, EventOccurrence, Expr, Implementation, Network, Stmt};

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
        for items in [vec![], vec!['a'], vec!['a', 'b', 'c'], vec!['a', 'b', 'c', 'd']] {
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
            stimulus: (0..3).map(|i| (i * 5_000, EventOccurrence::pure(go))).collect(),
            priorities: vec![1, 1],
        }
    }

    fn serial_partitions(
        soc: &SocDescription,
        movable: &[ProcId],
    ) -> Result<Vec<PartitionPoint>, BuildEstimatorError> {
        let config = CoSimConfig::date2000_defaults();
        crate::explore_partitions_parallel(soc, &config, movable, &ExploreOptions::serial())
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
            crate::explore_bus_architecture_parallel(
                &soc,
                &config,
                procs,
                &[4],
                &ExploreOptions::serial(),
            )
        };
        // 9! orders are rejected before any is enumerated.
        let err = sweep(&[p; 9]);
        assert!(matches!(err, Err(BuildEstimatorError::InvalidParams(_))));
        // No prioritized process is one order: the base priorities.
        let base = sweep(&[]).expect("empty order list sweeps");
        assert_eq!(base.points.len(), 1);
        assert!(base.points[0].priorities.is_empty());
    }
}
