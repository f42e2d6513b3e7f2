//! The traced run: exact per-layer counts from the benchmark's own trace
//! sink, per-layer self times from replay (see [`crate::replay`]), and the
//! tracing overhead from running every point both detached and attached.

use crate::replay::{replay_point, LayerTimes};
use crate::sink::{Recording, RecordingSink};
use crate::stats::residual;
use crate::workloads::{lane_config, lane_units, Env, Outputs, Workload, LANES};
use cfsm::Implementation;
use co_estimation::{run_lane_sweep, CoSimReport, CoSimulator, SocDescription};
use gatesim::PowerConfig;
use std::time::Instant;

/// Per-layer figures summed over every traced point.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    pub gate_calls: u64,
    pub gate_evals: u64,
    pub gate_events: u64,
    /// Gate output changes the replayed firings committed.
    pub replay_gate_events: u64,
    pub lane_batches: u64,
    pub lane_units: u64,
    pub lane_eval_slots: u64,
    pub lanes_s: f64,
    pub iss_calls: u64,
    pub iss_cycles: u64,
    pub fetches: u64,
    pub fetch_hits: u64,
    pub grants: u64,
    pub bus_words: u64,
    pub decisions: u64,
    pub answered: u64,
    pub energy_error_pct: f64,
    pub fires: u64,
    pub desim_events: u64,
    pub charges: u64,
    pub times: LayerTimes,
    /// Σ wall time of the points as traced, seconds.
    pub point_wall_s: f64,
    /// Σ time the traced points spent in `CoSimulator::new` (estimator
    /// construction, synthesis-memo lookups), seconds.
    pub build_s: f64,
    /// Σ (sweep wall − Σ per-point wall), seconds.
    pub explore_overhead_s: f64,
    pub detached_s: f64,
    pub attached_s: f64,
    /// Points traced, and those whose counts or outputs disagreed.
    pub points: u64,
    pub failed: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerMetrics {
    fn self_times(&self) -> Vec<f64> {
        let mut all = self.times.all().to_vec();
        all.extend([self.lanes_s, self.build_s]);
        all
    }

    /// Every per-layer metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.times;
        let residual_s = residual(self.point_wall_s, &self.self_times());
        let c = |n: u64| n as f64;
        vec![
            ("gatesim.calls", c(self.gate_calls), "count"),
            ("gatesim.gate_evals", c(self.gate_evals), "count"),
            ("gatesim.gate_events", c(self.gate_events), "count"),
            (
                "gatesim.events_per_eval",
                ratio(c(self.gate_events), c(self.gate_evals)),
                "ratio",
            ),
            ("gatesim.self_s", t.gatesim, "s"),
            ("gatesim.idle_s", t.gatesim_idle, "s"),
            (
                "gatesim.replay_coverage",
                ratio(c(self.replay_gate_events), c(self.gate_events)),
                "ratio",
            ),
            (
                "gatesim.self_frac",
                ratio(t.gatesim + t.gatesim_idle, self.point_wall_s),
                "ratio",
            ),
            ("lanes.batches", c(self.lane_batches), "count"),
            (
                "lanes.fill_frac",
                ratio(c(self.lane_units), c(self.lane_batches * LANES as u64)),
                "ratio",
            ),
            ("lanes.eval_slots", c(self.lane_eval_slots), "count"),
            ("lanes.self_s", self.lanes_s, "s"),
            ("iss.calls", c(self.iss_calls), "count"),
            ("iss.sim_cycles", c(self.iss_cycles), "cycles"),
            ("iss.self_s", t.iss, "s"),
            ("cachesim.fetches", c(self.fetches), "count"),
            (
                "cachesim.hit_frac",
                ratio(c(self.fetch_hits), c(self.fetches)),
                "ratio",
            ),
            ("cachesim.self_s", t.cachesim, "s"),
            ("busmodel.grants", c(self.grants), "count"),
            ("busmodel.words", c(self.bus_words), "count"),
            ("busmodel.self_s", t.busmodel, "s"),
            ("accel.decisions", c(self.decisions), "count"),
            (
                "accel.answered_frac",
                ratio(c(self.answered), c(self.decisions)),
                "ratio",
            ),
            ("accel.self_s", t.accel, "s"),
            ("accel.energy_error_pct", self.energy_error_pct, "%"),
            ("cfsm.fires", c(self.fires), "count"),
            ("cfsm.self_s", t.cfsm, "s"),
            ("desim.events", c(self.desim_events), "count"),
            ("desim.self_s", t.desim, "s"),
            ("account.charges", c(self.charges), "count"),
            ("account.self_s", t.account, "s"),
            ("explore.overhead_s", self.explore_overhead_s, "s"),
            ("master.point_wall_s", self.point_wall_s, "s"),
            ("master.build_s", self.build_s, "s"),
            ("master.residual_s", residual_s, "s"),
            (
                "master.residual_frac",
                ratio(residual_s, self.point_wall_s),
                "ratio",
            ),
            (
                "trace.overhead_pct",
                100.0 * ratio(self.attached_s - self.detached_s, self.detached_s),
                "%",
            ),
        ]
    }
}

/// One point run from scratch.
struct PointRun {
    report: CoSimReport,
    rec: Recording,
    wall_s: f64,
    build_s: f64,
}

/// Runs one point from scratch (build + run), with or without the
/// recording sink.
fn run_point(
    soc: &SocDescription,
    config: &co_estimation::CoSimConfig,
    attach: bool,
) -> Result<PointRun, String> {
    let (soc, config) = (soc.clone(), config.clone());
    let sink = RecordingSink::default();
    let t0 = Instant::now();
    let mut sim = CoSimulator::new(soc, config).map_err(|e| e.to_string())?;
    let build_s = t0.elapsed().as_secs_f64();
    if attach {
        sim.attach_trace(Box::new(sink.clone()));
    }
    let report = sim.run();
    let wall_s = t0.elapsed().as_secs_f64();
    drop(sim);
    Ok(PointRun {
        report,
        rec: sink.0.take(),
        wall_s,
        build_s,
    })
}

/// How the sink's counts disagree with the report's own counters.
fn count_mismatches(rec: &Recording, report: &CoSimReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |what: &str, got: u64, want: u64| {
        if got != want {
            bad.push(format!("{what}: trace {got} != report {want}"));
        }
    };
    check("firings", rec.firings.len() as u64, report.firings);
    let detailed = rec.firings.iter().filter(|f| f.detailed).count() as u64;
    check("detailed calls", detailed, report.detailed_calls);
    check(
        "accelerated calls",
        rec.layer_answers,
        report.accelerated_calls,
    );
    check("bus blocks", rec.grant_ends.len() as u64, report.bus.blocks);
    check("bus words", rec.bus_words, report.bus.words);
    check("icache fetches", rec.fetches, report.cache.accesses);
    check("icache hits", rec.fetch_hits, report.cache.hits);
    for (i, p) in report.processes.iter().enumerate() {
        let n = rec
            .firings
            .iter()
            .filter(|f| f.process as usize == i)
            .count() as u64;
        check(&format!("firings of {}", p.name), n, p.firings);
    }
    check(
        "ledger charges",
        rec.charges.len() as u64,
        report.provenance.total_records(),
    );
    bad
}

impl LayerMetrics {
    /// Traces one repetition of a co-estimation workload and returns its
    /// sweep's outputs.
    fn trace_coest(&mut self, w: Workload, env: &Env, rep_seed: u64) -> Result<Outputs, String> {
        let out = w.run(env, rep_seed)?;
        let Outputs::Coest {
            reports,
            point_ms,
            sweep_ms,
        } = &out
        else {
            return Err("not a co-estimation workload".into());
        };
        self.explore_overhead_s += (sweep_ms - point_ms.iter().sum::<f64>()) / 1e3;
        let specs = w.point_specs(env, rep_seed)?;
        if specs.len() != reports.len() {
            return Err(format!(
                "{} point specs for {} points",
                specs.len(),
                reports.len()
            ));
        }
        for (i, (spec, swept)) in specs.iter().zip(reports).enumerate() {
            // Alternate which side runs first so warm-cache effects cancel.
            let (a, d) = if i % 2 == 0 {
                let a = run_point(&spec.soc, &spec.config, true)?;
                (a, run_point(&spec.soc, &spec.config, false)?)
            } else {
                let d = run_point(&spec.soc, &spec.config, false)?;
                (run_point(&spec.soc, &spec.config, true)?, d)
            };
            self.points += 1;
            self.attached_s += a.wall_s;
            self.detached_s += d.wall_s;
            self.point_wall_s += a.wall_s;
            self.build_s += a.build_s;
            let golden = swept.golden_snapshot();
            let mut problems = count_mismatches(&a.rec, &a.report);
            if a.report.golden_snapshot() != golden || d.report.golden_snapshot() != golden {
                problems.push("rebuilt point differs from the sweep's".into());
            }
            match replay_point(&spec.soc, &spec.config, &a.rec, &a.report) {
                Ok(r) => {
                    self.times.add(&r.times);
                    self.desim_events += r.desim_events;
                    self.replay_gate_events += r.gate_events;
                }
                Err(e) => problems.push(e),
            }
            if !problems.is_empty() {
                self.failed += 1;
                eprintln!(
                    "point {i} of rep seed {rep_seed:#x}: {}",
                    problems.join("; ")
                );
            }
            self.add_counts(&spec.soc, &a.rec, &a.report);
        }
        Ok(out)
    }

    fn add_counts(&mut self, soc: &SocDescription, rec: &Recording, report: &CoSimReport) {
        for f in rec.firings.iter().filter(|f| f.detailed) {
            let p = cfsm::ProcId(f.process);
            match soc.network.mapping(p) {
                Implementation::Hw => self.gate_calls += 1,
                Implementation::Sw => {
                    self.iss_calls += 1;
                    self.iss_cycles += f.cycles;
                }
            }
        }
        self.gate_evals += rec.gate_evals;
        self.gate_events += rec.gate_events;
        self.fetches += rec.fetches;
        self.fetch_hits += rec.fetch_hits;
        self.grants += rec.grant_ends.len() as u64;
        self.bus_words += rec.bus_words;
        self.decisions += report.firings;
        self.answered += rec.layer_answers;
        self.fires += rec.firings.len() as u64;
        self.charges += rec.charges.len() as u64;
    }

    /// Traces one 256-lane batch.
    fn trace_lanes(&mut self, env: &Env, rep_seed: u64) -> Result<f64, String> {
        let netlist = env.netlist.as_ref().ok_or("mc_lanes set-up missing")?;
        let t_point = Instant::now();
        let units = lane_units(rep_seed);
        let t0 = Instant::now();
        let sweep = run_lane_sweep(
            netlist,
            &PowerConfig::date2000_defaults(),
            &units,
            &lane_config(),
        )
        .map_err(|e| e.to_string())?;
        self.lanes_s += t0.elapsed().as_secs_f64();
        let wall = t_point.elapsed().as_secs_f64();
        self.point_wall_s += wall;
        self.points += 1;
        self.lane_batches += sweep.batches as u64;
        self.lane_units += units.len() as u64;
        self.lane_eval_slots += sweep.gate_eval_slots;
        if sweep.points.len() != units.len() {
            self.failed += 1;
        }
        Ok(wall)
    }
}

/// Traces the given repetitions of workload `w`.
pub fn trace(w: Workload, env: &Env, rep_seeds: &[u64]) -> Result<LayerMetrics, String> {
    let mut m = LayerMetrics::default();
    if w == Workload::McLanes {
        let t0 = Instant::now();
        let mut walls = 0.0;
        for &s in rep_seeds {
            walls += m.trace_lanes(env, s)?;
        }
        m.explore_overhead_s = t0.elapsed().as_secs_f64() - walls;
        return Ok(m);
    }
    for (i, &s) in rep_seeds.iter().enumerate() {
        let out = m.trace_coest(w, env, s)?;
        if i == 0 {
            m.energy_error_pct = w.energy_error_pct(env, s, &out)?;
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_estimation::{Acceleration, CachingConfig, CoSimConfig};
    use systems::tcpip::{self, TcpIpParams};

    #[test]
    fn counts_match_the_report_and_replay_reproduces_the_ledger() {
        let soc = tcpip::build(&TcpIpParams {
            num_packets: 4,
            len_range: (8, 16),
            pkt_period: 3_000,
            seed: 5,
        })
        .expect("valid params");
        let detailed = CoSimConfig::date2000_defaults();
        for config in [
            detailed.clone(),
            detailed.with_accel(Acceleration::caching(CachingConfig::new())),
        ] {
            let run = run_point(&soc, &config, true).expect("point runs");
            assert!(run.wall_s >= run.build_s && run.build_s > 0.0);
            assert_eq!(
                count_mismatches(&run.rec, &run.report),
                Vec::<String>::new()
            );
            let replay = replay_point(&soc, &config, &run.rec, &run.report).expect("replays");
            assert!(replay.times.gatesim > 0.0 && replay.times.iss > 0.0);
            assert!(replay.desim_events > 0 && replay.gate_events > 0);
        }
    }

    #[test]
    fn residual_is_the_wall_time_no_layer_claims() {
        let m = LayerMetrics {
            point_wall_s: 1.0,
            build_s: 0.25,
            lanes_s: 0.125,
            times: LayerTimes {
                gatesim: 0.5,
                ..LayerTimes::default()
            },
            ..LayerMetrics::default()
        };
        let get = |name: &str| {
            m.metrics()
                .into_iter()
                .find(|(n, _, _)| *n == name)
                .map(|(_, v, _)| v)
                .expect("metric exists")
        };
        assert_eq!(get("master.residual_s"), 0.125);
        assert_eq!(get("master.residual_frac"), 0.125);
        assert_eq!(get("gatesim.self_frac"), 0.5);
    }
}
