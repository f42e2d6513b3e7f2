//! `perfbench` — the co-estimation benchmark of the socpower workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --print-reference
//! ```
//!
//! Workloads: `fig7_detailed`, `table_accel`, `mc_lanes`, `fig1_jitter`
//! (see `workloads.rs`). Everything runs in this one process on one
//! thread. With `--trace 0` the run measures end-to-end figures with no
//! sink attached; with `--trace 1` it reports per-layer counts and self
//! times instead (see `traced.rs`). The last line of standard output is
//! the result object; the line before it carries the run's metadata.
//!
//! End-to-end times are expressed at a nominal host speed measured with a
//! reference kernel between repetitions (see `host.rs`); the raw figures
//! are in the metadata line.
//!
//! Outputs are checked outside the timed region: every point must
//! complete with a bit-exact provenance partition, and the reference
//! repetition (the first repetition of seed 1) must reproduce the golden
//! digests stored under `reference/`, which `--print-reference`
//! regenerates.

mod heap;
mod host;
mod replay;
mod sink;
mod stats;
mod traced;
mod workloads;

use stats::{derive_seed, median, percentile};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Env, Outputs, Workload};

#[global_allocator]
static GLOBAL: heap::CountingAlloc = heap::CountingAlloc;

/// The seed whose first repetition is the golden reference.
const DEFAULT_SEED: u64 = 1;
/// Cold set-ups per run, spread evenly over the timed loop so they see
/// the same host as the points do; `setup_s` is their median.
const SETUP_REPS: u64 = 31;
/// Latency samples a run collects at least, so that ten lie beyond the
/// 90th percentile.
const MIN_SAMPLES: usize = 100;
/// A run stops collecting after this long, whatever else it lacks.
const RUN_CAP_S: f64 = 120.0;
/// Lanes per batch checked against solo scalar runs, in the first
/// `LANE_CHECK_REPS` batches of a run.
const CHECK_LANES: usize = 2;
const LANE_CHECK_REPS: u64 = 4;

fn reference(w: Workload) -> &'static str {
    match w {
        Workload::Fig7Detailed => include_str!("../reference/fig7_detailed.txt"),
        Workload::TableAccel => include_str!("../reference/table_accel.txt"),
        Workload::McLanes => include_str!("../reference/mc_lanes.txt"),
        Workload::Fig1Jitter => include_str!("../reference/fig1_jitter.txt"),
    }
}

/// Repetitions the traced run replays.
fn trace_reps(w: Workload) -> u64 {
    match w {
        Workload::Fig7Detailed => 2,
        Workload::TableAccel => 1,
        Workload::McLanes => 8,
        Workload::Fig1Jitter => 2,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut print_reference) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--print-reference" => print_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_reference,
    })
}

/// One cold set-up (synthesis memo cleared first) and its wall time.
/// Sample `k` builds its system from a seed derived from the top of the
/// repetition range, which the timed repetitions never reach.
fn setup(w: Workload, seed: u64, k: u64) -> Result<(Env, f64), String> {
    gatesim::clear_synth_cache();
    let t0 = Instant::now();
    let env = w.setup(derive_seed(seed, u64::MAX - k))?;
    Ok((env, t0.elapsed().as_secs_f64()))
}

/// Points of `out` whose digests differ from the stored reference.
fn reference_mismatches(w: Workload, out: &Outputs) -> usize {
    let want: Vec<&str> = reference(w).lines().filter(|l| !l.is_empty()).collect();
    let got = out.digests();
    if want.len() != got.len() {
        return got.len().max(1);
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| format!("{g:016x}") != *w)
        .count()
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The end-to-end run: repetitions until `seconds` of sweep time and
/// `MIN_SAMPLES` latency samples are in.
fn measure(
    a: &Args,
    env: &Env,
    first_setup_s: f64,
    meta: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let w = a.workload;
    let started = Instant::now();
    let mut setups = vec![first_setup_s];
    let (mut timed_s, mut points, mut cycles, mut firings) = (0.0, 0u64, 0u64, 0u64);
    let (mut attempted, mut failed, mut energy_error_pct) = (0u64, 0u64, 0.0);
    let mut samples: Vec<f64> = Vec::new();
    let mut host = host::HostSpeed::new();
    host.probe();
    let mut rep = 0u64;
    while (timed_s < a.seconds || samples.len() < MIN_SAMPLES)
        && started.elapsed().as_secs_f64() < RUN_CAP_S
    {
        let rep_seed = derive_seed(a.seed, rep);
        let t0 = Instant::now();
        let out = w.run(env, rep_seed)?;
        timed_s += t0.elapsed().as_secs_f64();
        points += out.points() as u64;
        cycles += out.sim_cycles();
        firings += out.firings();
        samples.extend(out.samples_ms());
        // Checks, outside the timed region.
        attempted += out.points() as u64;
        let mut bad = out.unsound_points();
        if rep == 0 {
            energy_error_pct = w.energy_error_pct(env, rep_seed, &out)?;
            if a.seed == DEFAULT_SEED {
                bad += reference_mismatches(w, &out);
            }
        }
        if rep < LANE_CHECK_REPS {
            bad += w.lane_mismatches(env, &out, CHECK_LANES)?;
        }
        failed += bad.min(out.points()) as u64;
        host.probe();
        rep += 1;
        if (setups.len() as f64) < SETUP_REPS as f64 * timed_s / a.seconds {
            setups.push(setup(w, a.seed, setups.len() as u64)?.1);
        }
    }
    // Peak memory of the measured loop, before the closing checks.
    let (heap_mb, rss_mb) = (heap::peak_mb(), peak_rss_mb());
    while setups.len() < SETUP_REPS as usize {
        setups.push(setup(w, a.seed, setups.len() as u64)?.1);
    }
    if a.seed != DEFAULT_SEED {
        let out = w.run(env, derive_seed(DEFAULT_SEED, 0))?;
        attempted += out.points() as u64;
        failed += (out.unsound_points() + reference_mismatches(w, &out)).min(out.points()) as u64;
    }
    let p50 = percentile(&samples, 0.5);
    let p90 = percentile(&samples, 0.9).ok_or(format!(
        "{} latency samples leave no 90th percentile",
        samples.len()
    ))?;
    let setup_s = median(&setups);
    let (points_per_s, cycles_per_s) = (points as f64 / timed_s, cycles as f64 / timed_s);
    // Times shrink and rates grow by the factor on a slow host.
    let k = host.factor();
    let raw = |name: &str, v: f64| (format!("raw_{name}"), v.to_string());
    meta.extend([
        ("repetitions".into(), rep.to_string()),
        ("latency_samples".into(), samples.len().to_string()),
        ("timed_s".into(), timed_s.to_string()),
        ("host_ref_ops_per_s".into(), host.ops_per_s().to_string()),
        ("host_speed_factor".into(), k.to_string()),
        ("point_p90_ms".into(), (p90 * k).to_string()),
        raw("setup_s", setup_s),
        raw("points_per_s", points_per_s),
        raw("point_p90_ms", p90),
        raw("sim_cycles_per_s", cycles_per_s),
        raw("point_p50_ms", p50.unwrap_or(f64::NAN)),
        (
            "firings_per_s".into(),
            (firings as f64 / timed_s).to_string(),
        ),
        ("energy_error_pct".into(), energy_error_pct.to_string()),
        ("peak_rss_mb".into(), rss_mb.to_string()),
    ]);
    print_meta(meta);
    print_result(
        attempted > 0 && failed == 0,
        attempted,
        failed,
        &[
            ("setup_s", setup_s * k, "s"),
            ("points_per_s", points_per_s / k, "1/s"),
            ("sim_cycles_per_s", cycles_per_s / k, "cycles/s"),
            ("peak_heap_mb", heap_mb, "MiB"),
        ],
    );
    Ok(())
}

fn print_meta(meta: &[(String, String)]) {
    let body: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", body.join(", "));
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    if a.print_reference {
        let (env, _) = setup(w, DEFAULT_SEED, 0)?;
        for d in w.run(&env, derive_seed(DEFAULT_SEED, 0))?.digests() {
            println!("{d:016x}");
        }
        return Ok(());
    }
    let (env, setup_s) = setup(w, a.seed, 0)?;
    let mut meta = vec![
        ("workload".to_string(), w.name().to_string()),
        ("seed".into(), a.seed.to_string()),
        ("trace".into(), u8::from(a.trace).to_string()),
        ("workers".into(), "1".into()),
    ];
    let finish_meta = |meta: &mut Vec<(String, String)>| {
        let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
        meta.push(("host_cpus".into(), cpus.to_string()));
        meta.push(("rustc".into(), command_output("rustc", &["-V"])));
        let commit = if std::path::Path::new(".git").exists() {
            command_output("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".into()
        };
        meta.push(("commit".into(), commit));
    };
    if !a.trace {
        finish_meta(&mut meta);
        return measure(a, &env, setup_s, &mut meta);
    }
    let reps: Vec<u64> = (0..trace_reps(w)).map(|r| derive_seed(a.seed, r)).collect();
    let m = traced::trace(w, &env, &reps)?;
    meta.push(("traced_points".into(), m.points.to_string()));
    finish_meta(&mut meta);
    print_meta(&meta);
    print_result(
        m.failed == 0 && m.points > 0,
        m.points,
        m.failed,
        &m.metrics(),
    );
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
