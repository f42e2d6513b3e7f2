//! The four workloads: how each is set up, what one repetition runs, and
//! how its outputs are checked.
//!
//! Every co-estimation sweep goes through an `explore_*_parallel` entry
//! point with `ExploreOptions::serial()` (one worker); the lane workload
//! calls `run_lane_sweep` one 256-lane batch at a time. Each repetition
//! takes a seed derived from the workload seed, so no run feeds the same
//! inputs twice.

use crate::stats::{derive_seed, fnv1a};
use cfsm::{ProcId, TransitionId};
use co_estimation::{
    explore_bus_architecture_parallel, explore_stimulus_seeds_parallel, permutations,
    run_lane_sweep, run_lane_sweep_serial, Acceleration, CachingConfig, CoSimConfig, CoSimReport,
    CoSimulator, ExploreOptions, LanePoint, LaneSweep, LaneSweepConfig, LaneUnit, SamplingConfig,
    SocDescription, StimulusJitter, SweepStats,
};
use detrand::Rng;
use gatesim::{HwCfsm, Netlist, PowerConfig};
use std::sync::Arc;
use std::time::Instant;
use systems::producer_consumer::{self, ProducerConsumerParams};
use systems::tcpip::{self, TcpIpParams};

/// The Fig. 7 DMA block sizes (6 priority orders × 8 sizes = 48 points).
const FIG7_DMA: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// The Table 1/2 DMA block sizes.
const TABLE_DMA: [u32; 6] = [2, 4, 8, 16, 32, 64];
/// The bus masters whose priority order the Fig. 7 sweep permutes.
const FIG7_PROCS: [&str; 3] = ["create_pack", "ip_check", "checksum"];
/// Stimulus seeds per `fig1_jitter` repetition.
const FIG1_SEEDS: u64 = 8;
/// Lanes per `mc_lanes` batch (one full 256-lane word).
pub const LANES: usize = 256;

/// The `mc_lanes` stimulus: the default 20 % input activity over 128
/// cycles per unit, one full 256-lane word per batch. Half the default
/// length keeps batches short enough that one run collects the hundred
/// batch latencies its 90th percentile needs.
pub fn lane_config() -> LaneSweepConfig {
    LaneSweepConfig {
        cycles: 128,
        ..LaneSweepConfig::default()
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig7Detailed,
    TableAccel,
    McLanes,
    Fig1Jitter,
}

/// What [`Workload::setup`] builds once per run.
pub struct Env {
    pub base: CoSimConfig,
    /// The synthesized checksum netlist (`mc_lanes` only).
    pub netlist: Option<Arc<Netlist>>,
}

/// One co-estimation point, as its sweep evaluated it.
pub struct PointSpec {
    pub soc: SocDescription,
    pub config: CoSimConfig,
}

/// The outputs of one repetition.
pub enum Outputs {
    /// Co-estimation reports in sweep order, with each point's wall time.
    Coest {
        reports: Vec<CoSimReport>,
        point_ms: Vec<f64>,
        sweep_ms: f64,
    },
    /// One lane batch and the units it carried.
    Lanes {
        units: Vec<LaneUnit>,
        sweep: LaneSweep,
        batch_ms: f64,
    },
}

impl Outputs {
    /// Points completed: co-simulations, or lane units.
    pub fn points(&self) -> usize {
        match self {
            Outputs::Coest { reports, .. } => reports.len(),
            Outputs::Lanes { units, .. } => units.len(),
        }
    }

    /// Host latency samples, ms: one per point, or one per lane batch.
    pub fn samples_ms(&self) -> Vec<f64> {
        match self {
            Outputs::Coest { point_ms, .. } => point_ms.clone(),
            Outputs::Lanes { batch_ms, .. } => vec![*batch_ms],
        }
    }

    /// Simulated cycles (lane-cycles for a lane batch).
    pub fn sim_cycles(&self) -> u64 {
        match self {
            Outputs::Coest { reports, .. } => reports.iter().map(|r| r.total_cycles).sum(),
            Outputs::Lanes { sweep, .. } => sweep
                .points
                .iter()
                .map(|p| p.report.per_cycle_j.len() as u64)
                .sum(),
        }
    }

    /// CFSM firings (none in a lane batch).
    pub fn firings(&self) -> u64 {
        match self {
            Outputs::Coest { reports, .. } => reports.iter().map(|r| r.firings).sum(),
            Outputs::Lanes { .. } => 0,
        }
    }

    /// One digest per point: of the golden snapshot, or of the lane's
    /// energy bits, toggle counts and final values.
    pub fn digests(&self) -> Vec<u64> {
        match self {
            Outputs::Coest { reports, .. } => reports
                .iter()
                .map(|r| fnv1a(r.golden_snapshot().as_bytes()))
                .collect(),
            Outputs::Lanes { sweep, .. } => sweep.points.iter().map(lane_digest).collect(),
        }
    }

    /// Points that are not `Completed` or whose provenance partition is
    /// not bit-exact.
    pub fn unsound_points(&self) -> usize {
        match self {
            Outputs::Coest { reports, .. } => reports
                .iter()
                .filter(|r| r.outcome.is_degraded() || r.verify_provenance().is_err())
                .count(),
            Outputs::Lanes { units, sweep, .. } => {
                let shape_ok = sweep.batches == 1
                    && sweep.points.len() == units.len()
                    && sweep.points.iter().zip(units).all(|(p, u)| &p.unit == u);
                if shape_ok {
                    0
                } else {
                    units.len()
                }
            }
        }
    }
}

/// Joins the sweeps of one repetition into its outputs.
fn coest(sweeps: Vec<(Vec<CoSimReport>, SweepStats)>) -> Outputs {
    let sweep_ms = sweeps.iter().map(|(_, s)| s.wall_ms).sum();
    let point_ms = sweeps
        .iter()
        .flat_map(|(_, s)| s.point_wall_ms.iter().copied())
        .collect();
    let reports = sweeps.into_iter().flat_map(|(r, _)| r).collect();
    Outputs::Coest {
        reports,
        point_ms,
        sweep_ms,
    }
}

fn lane_digest(p: &LanePoint) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (p.report.per_cycle_j.len() + p.toggles.len()));
    for e in &p.report.per_cycle_j {
        bytes.extend_from_slice(&e.to_bits().to_le_bytes());
    }
    for t in &p.toggles {
        bytes.extend_from_slice(&t.to_le_bytes());
    }
    bytes.extend(p.values.iter().map(|&v| u8::from(v)));
    fnv1a(&bytes)
}

/// Whether two lane points agree to the bit.
fn lanes_bit_identical(a: &LanePoint, b: &LanePoint) -> bool {
    a.unit == b.unit
        && a.toggles == b.toggles
        && a.values == b.values
        && a.report.per_cycle_j.len() == b.report.per_cycle_j.len()
        && a.report
            .per_cycle_j
            .iter()
            .zip(&b.report.per_cycle_j)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The caching thresholds of the Table 1 reproduction.
fn table1_caching() -> CachingConfig {
    CachingConfig {
        thresh_variance: 0.20,
        thresh_iss_calls: 2,
        keep_samples: false,
    }
}

/// The Table 1–2 acceleration modes: caching, macro-modeling and
/// sampling with period 4.
fn table_modes() -> [Acceleration; 3] {
    [
        Acceleration::caching(table1_caching()),
        Acceleration::macromodel(),
        Acceleration::sampling(SamplingConfig { period: 4 }),
    ]
}

fn fig7_soc(seed: u64) -> Result<SocDescription, String> {
    tcpip::build(&TcpIpParams {
        seed,
        ..TcpIpParams::fig7_defaults()
    })
    .map_err(|e| e.to_string())
}

fn table_soc(seed: u64) -> Result<SocDescription, String> {
    tcpip::build(&TcpIpParams {
        seed,
        ..TcpIpParams::table_defaults()
    })
    .map_err(|e| e.to_string())
}

fn fig1_soc() -> Result<SocDescription, String> {
    producer_consumer::build(&ProducerConsumerParams::fig1_defaults()).map_err(|e| e.to_string())
}

fn fig7_procs(soc: &SocDescription) -> Result<Vec<ProcId>, String> {
    FIG7_PROCS
        .iter()
        .map(|n| {
            soc.network
                .process_by_name(n)
                .ok_or_else(|| format!("tcpip has no process `{n}`"))
        })
        .collect()
}

/// The stimulus seeds of one `fig1_jitter` repetition.
fn fig1_seeds(rep_seed: u64) -> Vec<u64> {
    (0..FIG1_SEEDS).map(|i| derive_seed(rep_seed, i)).collect()
}

/// The stimulus variant `explore_stimulus_seeds_parallel` evaluates for
/// `seed`: every arrival time and payload jittered by a `detrand` stream.
/// The traced run checks each rebuilt variant against the sweep's own
/// report, bit for bit.
fn stimulus_variant(soc: &SocDescription, seed: u64, jitter: &StimulusJitter) -> SocDescription {
    let mut rng = Rng::new(seed ^ 0x4D43_5354_494D_0001);
    let mut variant = soc.clone();
    for (time, occurrence) in &mut variant.stimulus {
        let dt = rng.i64_in(-(jitter.time as i64), jitter.time as i64 + 1);
        *time = time.saturating_add_signed(dt);
        if let Some(v) = &mut occurrence.value {
            *v = v.wrapping_add(rng.i64_in(-jitter.value, jitter.value + 1));
        }
    }
    variant.stimulus.sort_by_key(|&(t, _)| t);
    variant
}

/// The synthesized netlist of the largest transition of the tcpip
/// `checksum` process.
fn checksum_netlist(config: &CoSimConfig) -> Result<Arc<Netlist>, String> {
    let soc = fig7_soc(TcpIpParams::fig7_defaults().seed)?;
    let p = soc
        .network
        .process_by_name("checksum")
        .ok_or("tcpip has no checksum process")?;
    let hw = HwCfsm::synthesize(soc.network.cfsm(p), &config.synth, &config.hw_power)
        .map_err(|e| e.to_string())?;
    let largest = (0..hw.transition_count())
        .max_by_key(|&k| hw.transition(TransitionId(k as u32)).gate_count())
        .ok_or("checksum has no transitions")?;
    Ok(Arc::clone(
        hw.transition(TransitionId(largest as u32)).netlist(),
    ))
}

pub fn lane_units(rep_seed: u64) -> Vec<LaneUnit> {
    (0..LANES as u64)
        .map(|i| LaneUnit::MonteCarlo {
            seed: derive_seed(rep_seed, i),
        })
        .collect()
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Detailed,
        Workload::TableAccel,
        Workload::McLanes,
        Workload::Fig1Jitter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Detailed => "fig7_detailed",
            Workload::TableAccel => "table_accel",
            Workload::McLanes => "mc_lanes",
            Workload::Fig1Jitter => "fig1_jitter",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cold set-up: builds the workload's system and every estimator it
    /// needs (synthesis, compilation, macro-model characterization).
    /// Callers clear the synthesis memo first.
    pub fn setup(self, seed: u64) -> Result<Env, String> {
        let base = CoSimConfig::date2000_defaults();
        let build = |soc: SocDescription, config: CoSimConfig| {
            CoSimulator::new(soc, config)
                .map(drop)
                .map_err(|e| e.to_string())
        };
        let mut netlist = None;
        match self {
            Workload::Fig7Detailed => build(fig7_soc(seed)?, base.clone())?,
            Workload::TableAccel => {
                let soc = table_soc(seed)?;
                for mode in table_modes() {
                    build(soc.clone(), base.with_accel(mode))?;
                }
            }
            Workload::McLanes => netlist = Some(checksum_netlist(&base)?),
            Workload::Fig1Jitter => build(fig1_soc()?, base.clone())?,
        }
        Ok(Env { base, netlist })
    }

    /// Runs one repetition; only the sweep call itself is timed.
    pub fn run(self, env: &Env, rep_seed: u64) -> Result<Outputs, String> {
        let serial = ExploreOptions::serial();
        let e = |e: co_estimation::BuildEstimatorError| e.to_string();
        Ok(match self {
            Workload::Fig7Detailed => {
                let soc = fig7_soc(rep_seed)?;
                let procs = fig7_procs(&soc)?;
                let r =
                    explore_bus_architecture_parallel(&soc, &env.base, &procs, &FIG7_DMA, &serial)
                        .map_err(e)?;
                coest(vec![(
                    r.points.into_iter().map(|p| p.report).collect(),
                    r.stats,
                )])
            }
            Workload::TableAccel => {
                let soc = table_soc(rep_seed)?;
                let mut sweeps = Vec::new();
                for mode in table_modes() {
                    let r = explore_bus_architecture_parallel(
                        &soc,
                        &env.base.with_accel(mode),
                        &[],
                        &TABLE_DMA,
                        &serial,
                    )
                    .map_err(e)?;
                    sweeps.push((r.points.into_iter().map(|p| p.report).collect(), r.stats));
                }
                coest(sweeps)
            }
            Workload::McLanes => {
                let netlist = env.netlist.as_ref().ok_or("mc_lanes set-up missing")?;
                let units = lane_units(rep_seed);
                let t0 = Instant::now();
                let sweep = run_lane_sweep(
                    netlist,
                    &PowerConfig::date2000_defaults(),
                    &units,
                    &lane_config(),
                )
                .map_err(|e| e.to_string())?;
                let batch_ms = t0.elapsed().as_secs_f64() * 1e3;
                Outputs::Lanes {
                    units,
                    sweep,
                    batch_ms,
                }
            }
            Workload::Fig1Jitter => {
                let soc = fig1_soc()?;
                let r = explore_stimulus_seeds_parallel(
                    &soc,
                    &env.base,
                    &fig1_seeds(rep_seed),
                    &StimulusJitter::default(),
                    &serial,
                )
                .map_err(e)?;
                coest(vec![(
                    r.points.into_iter().map(|p| p.report).collect(),
                    r.stats,
                )])
            }
        })
    }

    /// The points one repetition's sweeps evaluate, in sweep order: the
    /// system variant and configuration each point co-simulates.
    pub fn point_specs(self, env: &Env, rep_seed: u64) -> Result<Vec<PointSpec>, String> {
        let mut specs = Vec::new();
        match self {
            Workload::Fig7Detailed => {
                let soc = fig7_soc(rep_seed)?;
                for perm in permutations(&fig7_procs(&soc)?) {
                    for dma in FIG7_DMA {
                        let mut variant = soc.clone();
                        let n = perm.len() as u8;
                        for (rank, &p) in perm.iter().enumerate() {
                            variant.set_priority(p, n - rank as u8);
                        }
                        specs.push(PointSpec {
                            soc: variant,
                            config: env.base.with_dma_block_size(dma),
                        });
                    }
                }
            }
            Workload::TableAccel => {
                let soc = table_soc(rep_seed)?;
                for mode in table_modes() {
                    for dma in TABLE_DMA {
                        specs.push(PointSpec {
                            soc: soc.clone(),
                            config: env.base.with_accel(mode.clone()).with_dma_block_size(dma),
                        });
                    }
                }
            }
            Workload::McLanes => {}
            Workload::Fig1Jitter => {
                let soc = fig1_soc()?;
                for s in fig1_seeds(rep_seed) {
                    specs.push(PointSpec {
                        soc: stimulus_variant(&soc, s, &StimulusJitter::default()),
                        config: env.base.clone(),
                    });
                }
            }
        }
        Ok(specs)
    }

    /// The largest |E − E_detailed| / E_detailed over a repetition's
    /// points, percent, against all-detailed runs of the same points.
    /// Zero on the all-detailed workloads, which are their own reference.
    pub fn energy_error_pct(self, env: &Env, rep_seed: u64, out: &Outputs) -> Result<f64, String> {
        let (Workload::TableAccel, Outputs::Coest { reports, .. }) = (self, out) else {
            return Ok(0.0);
        };
        let soc = table_soc(rep_seed)?;
        let mut detailed = Vec::with_capacity(TABLE_DMA.len());
        for dma in TABLE_DMA {
            let mut sim = CoSimulator::new(soc.clone(), env.base.with_dma_block_size(dma))
                .map_err(|e| e.to_string())?;
            detailed.push(sim.run().total_energy_j());
        }
        // Reports run mode by mode, each over the DMA sizes.
        Ok(reports
            .iter()
            .zip(detailed.iter().cycle())
            .map(|(r, &d)| 100.0 * ((r.total_energy_j() - d) / d).abs())
            .fold(0.0, f64::max))
    }

    /// Checks `lanes` sampled lanes of a batch against solo scalar runs
    /// (`run_lane_sweep_serial`); returns how many differ.
    pub fn lane_mismatches(self, env: &Env, out: &Outputs, lanes: usize) -> Result<usize, String> {
        let (Outputs::Lanes { units, sweep, .. }, Some(netlist)) = (out, env.netlist.as_ref())
        else {
            return Ok(0);
        };
        let mut bad = 0;
        for k in 0..lanes.min(units.len()) {
            let lane = (k * 97 + 13) % units.len();
            let solo = run_lane_sweep_serial(
                netlist,
                &PowerConfig::date2000_defaults(),
                &units[lane..=lane],
                &lane_config(),
            )
            .map_err(|e| e.to_string())?;
            if !lanes_bit_identical(&solo.points[0], &sweep.points[lane]) {
                bad += 1;
            }
        }
        Ok(bad)
    }
}
