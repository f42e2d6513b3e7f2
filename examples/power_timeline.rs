//! Time-resolved power telemetry on the TCP/IP subsystem: run the
//! co-simulation under a clock-gating + power-gating + DVFS policy with
//! a [`soctrace::PowerTimelineSink`] attached, print the ASCII power
//! waveform and transient statistics, and export the timeline as
//!
//! * `target/power_timeline.vcd` — per-component power as real signals
//!   and power states as 2-bit regs, viewable in GTKWave;
//! * `target/power_timeline.perfetto.json` — Chrome Trace Event
//!   counter tracks and instant events, loadable at `ui.perfetto.dev`.
//!
//! Both artifacts are validated in-process (the VCD with
//! [`soctrace::check_vcd`], the JSON with [`soctrace::json`]) before
//! they are written, so a broken exporter fails the example rather
//! than producing an unreadable file.
//!
//! ```sh
//! cargo run --release --example power_timeline
//! ```

use co_estimation::{
    CoSimConfig, CoSimulator, GatingPolicy, LeakageModel, OperatingPoint, PowerPolicy,
};
use soctrace::json::JsonValue;
use soctrace::{check_vcd, json, write_perfetto, write_vcd, PowerTimelineSink, SharedSink,
    TimelineConfig};
use systems::tcpip::{build, TcpIpParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = build(&TcpIpParams::fig7_defaults())?;
    // A managed configuration exercising all three techniques: a
    // 0.25 µm-era leakage floor, clock gating on the packet producer,
    // power gating on the IP-check stage, and a DVFS point on the
    // checksum stage.
    let policy = PowerPolicy::named("gated_dvfs")
        .with_leakage(LeakageModel::with_default_rate(2.0e-3))
        .with_operating_point(OperatingPoint::new("0.85v_0.7f", 0.85, 0.7))
        .gate("create_pack", GatingPolicy::clock(300))
        .gate("ip_check", GatingPolicy::power(600, 2.0e-8, 12))
        .dvfs("checksum", 0);
    let config = CoSimConfig::date2000_defaults()
        .with_dma_block_size(4)
        .with_power_policy(policy);
    let clock_hz = config.clock_hz;

    let mut sim = CoSimulator::new(soc, config)?;
    let sink = SharedSink::new(PowerTimelineSink::new(TimelineConfig::new(1_000, clock_hz)));
    sim.attach_trace(Box::new(sink.clone()));
    let report = sim.run();
    let names = sim.component_names();
    let timeline = sink.with(|s| s.report(&names, report.total_cycles));

    println!("== power timeline: tcpip under gating + DVFS ==\n");
    print!("{}", timeline.render_ascii(64));

    let peak = timeline.peak().ok_or("run produced an empty timeline")?;
    println!(
        "\npeak window:      {:.4} W over cycles {}..{}",
        peak.power_w,
        peak.start_cycle,
        peak.start_cycle + timeline.window_cycles
    );
    println!("average power:    {:.4} W", timeline.average_power_w());
    println!(
        "moving-avg(3) max: {:.4} W",
        timeline.moving_average_max_w(3)
    );
    println!(
        "residency-weighted: {:.4} W",
        timeline.residency_weighted_power_w()
    );
    println!("\nper-state residency and energy:");
    for s in timeline.state_power() {
        println!(
            "  {:<12} {:>9} comp-cycles  {:>12.4e} J",
            s.state, s.cycles, s.energy_j
        );
    }
    println!(
        "\n{} power-state transitions, {} anomalies, {} windows of {} cycles",
        timeline.transitions.len(),
        timeline.anomalies.len(),
        timeline.window_count(),
        timeline.window_cycles
    );

    // Export and self-validate both artifacts.
    let vcd = write_vcd(&timeline);
    let summary = check_vcd(&vcd).map_err(|e| format!("emitted VCD is invalid: {e}"))?;
    let perfetto = write_perfetto(&timeline);
    let events = json::parse(&perfetto)
        .map_err(|e| format!("emitted Perfetto JSON is invalid: {e}"))?
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::len)
        .ok_or("Perfetto document has no traceEvents array")?;

    std::fs::create_dir_all("target")?;
    std::fs::write("target/power_timeline.vcd", &vcd)?;
    std::fs::write("target/power_timeline.perfetto.json", &perfetto)?;
    println!(
        "\nwrote target/power_timeline.vcd ({} signals, {} changes; open in GTKWave)",
        summary.signals, summary.changes
    );
    println!(
        "wrote target/power_timeline.perfetto.json ({events} events; load at ui.perfetto.dev)"
    );
    Ok(())
}
