//! Sweep-throughput benchmark: the Fig. 7 exploration (48 points),
//! measured serial and at several worker counts, written as
//! `BENCH_explore.json` so the bench trajectory tracks design-space
//! sweep throughput across PRs.
//!
//! Every multi-worker result is cross-checked bit-for-bit against the
//! one-worker sweep before its timing is recorded — a benchmark entry
//! only exists if the determinism contract held.
//!
//! Usage: `cargo run --release -p soc-bench --bin bench_explore [out.json]`

// Regeneration binary for the evaluation harness: aborting loudly on a
// broken setup is correct here, matching the tests-and-benches carve-out
// from the workspace-wide panic-free policy.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use co_estimation::{
    Acceleration, CoSimConfig, ExplorationPoint, ExploreOptions, SamplingConfig,
};
use soc_bench::{fig7_parallel, fig7_profile_overhead, run_with_metrics, table1_caching};
use std::time::Instant;
use systems::tcpip::{self, TcpIpParams};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bitwise_equal(a: &[ExplorationPoint], b: &[ExplorationPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dma_block_size == y.dma_block_size
                && x.priorities == y.priorities
                && x.label == y.label
                && x.report.golden_snapshot() == y.report.golden_snapshot()
        })
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_explore.json".to_string());
    let params = TcpIpParams::fig7_defaults();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("== bench_explore: Fig. 7 sweep throughput (host cpus: {host_cpus}) ==\n");

    // Warm-up run so first-touch costs (page faults, lazy init) do not
    // pollute the serial baseline.
    let _ = fig7_parallel(&params, &ExploreOptions::serial());

    let t0 = Instant::now();
    let serial = fig7_parallel(&params, &ExploreOptions::serial()).points;
    let serial_s = t0.elapsed().as_secs_f64();
    let points = serial.len();
    println!("serial: {points} points in {serial_s:.3} s ({:.1} points/s)", points as f64 / serial_s);

    let mut rows = String::new();
    for (k, &workers) in WORKER_COUNTS.iter().enumerate() {
        let sweep = fig7_parallel(&params, &ExploreOptions::with_workers(workers));
        let wall_s = sweep.stats.wall_ms / 1e3;
        let identical = bitwise_equal(&serial, &sweep.points);
        assert!(
            identical,
            "determinism contract violated at workers = {workers}"
        );
        let speedup = serial_s / wall_s;
        println!(
            "workers = {workers}: {:.3} s ({:.1} points/s, speedup {speedup:.2}x, bitwise identical: {identical})",
            wall_s, sweep.stats.points_per_sec
        );
        if k > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"workers\": {workers}, \"wall_s\": {wall_s:.6}, \
             \"points_per_sec\": {:.3}, \"speedup_vs_serial\": {speedup:.3}, \
             \"degraded\": {}, \"bitwise_identical\": {identical}}}",
            sweep.stats.points_per_sec, sweep.stats.degraded
        ));
    }

    // Trace-metrics cross-check: one representative run per acceleration
    // mode with a MetricsSink attached, reporting detailed vs.
    // accelerated calls per layer alongside the sweep timings.
    let mut metric_rows = String::new();
    let modes: [(&str, Acceleration); 4] = [
        ("baseline", Acceleration::none()),
        ("caching", Acceleration::caching(table1_caching())),
        ("macromodel", Acceleration::macromodel()),
        ("sampling", Acceleration::sampling(SamplingConfig { period: 4 })),
    ];
    println!();
    for (k, (mode, accel)) in modes.iter().enumerate() {
        let soc = tcpip::build(&params).expect("valid params");
        let config = CoSimConfig::date2000_defaults().with_accel(accel.clone());
        let (report, metrics) = run_with_metrics(soc, config);
        assert_eq!(metrics.firings, report.firings, "trace/report firing drift");
        assert_eq!(
            metrics.detailed_calls, report.detailed_calls,
            "trace/report detailed-call drift"
        );
        println!(
            "trace metrics [{mode}]: {} firings, {} detailed, {} accelerated",
            metrics.firings,
            metrics.detailed_calls,
            metrics.accelerated_calls()
        );
        if k > 0 {
            metric_rows.push_str(",\n");
        }
        metric_rows.push_str(&format!("    {{\"mode\": \"{mode}\", \"metrics\": {}}}", metrics.to_json()));
    }

    // Span-profiler cost on the same sweep: the observability layer must
    // stay invisible when detached and cheap when attached, and the
    // attached run must remain bit-identical (asserted inside the helper).
    let (detached_s, attached_s, _profile) = fig7_profile_overhead(&params);
    let profiler_overhead_pct = 100.0 * (attached_s - detached_s) / detached_s;
    println!(
        "\nprofiler: detached {detached_s:.3} s, attached {attached_s:.3} s \
         ({profiler_overhead_pct:+.2}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"explore_fig7_sweep\",\n  \"system\": \"tcpip\",\n  \
         \"points\": {points},\n  \"host_cpus\": {host_cpus},\n  \
         \"serial\": {{\"wall_s\": {serial_s:.6}, \"points_per_sec\": {:.3}}},\n  \
         \"parallel\": [\n{rows}\n  ],\n  \
         \"trace_metrics\": [\n{metric_rows}\n  ],\n  \
         \"profiler_overhead\": {{\"detached_wall_s\": {detached_s:.6}, \
         \"attached_wall_s\": {attached_s:.6}, \
         \"attached_overhead_pct\": {profiler_overhead_pct:.3}, \
         \"bitwise_identical\": true}}\n}}\n",
        points as f64 / serial_s
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");
}
