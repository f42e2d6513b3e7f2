//! Chrome Trace Event / Perfetto JSON export of a power timeline.
//!
//! The emitted document is the classic `{"traceEvents": [...]}` form,
//! loadable in `ui.perfetto.dev` and `chrome://tracing`:
//!
//! * **Counter tracks** (`ph: "C"`) — one per ledger component plus a
//!   system total, sampled at every window boundary with the window's
//!   average power in watts.
//! * **Instant events** (`ph: "i"`) — one per power-state transition
//!   (`from`/`to` in `args`) and one per fault/watchdog anomaly.
//!
//! Timestamps (`ts`) are microseconds, converted from cycles via the
//! timeline's master clock.

use crate::json_escape;
use crate::timeline::TimelineReport;

/// The `pid` of the simulation track.
const PID: u32 = 1;
/// The `tid` of the counter/instant simulation track.
const SIM_TID: u32 = 1;

/// Renders the timeline as a Chrome Trace Event JSON document. The
/// result round-trips through [`crate::json::parse`] and loads in
/// Perfetto.
pub fn write_perfetto(t: &TimelineReport) -> String {
    let us_per_cycle = 1e6 / t.clock_hz;
    let ts = |cycle: u64| cycle as f64 * us_per_cycle;
    let dt = t.window_seconds();
    let mut events: Vec<String> = Vec::new();

    // Track naming metadata.
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{SIM_TID},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"power timeline\"}}}}"
    ));

    // Counter tracks: per-component and system power per window.
    let system = t.system_window_energy_j();
    for (w, &sys_e) in system.iter().enumerate() {
        let at = ts(w as u64 * t.window_cycles);
        for c in &t.components {
            let p = c.window_energy_j.get(w).copied().unwrap_or(0.0) / dt;
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{SIM_TID},\"name\":\"power_w:{}\",\
                 \"ts\":{at:.3},\"args\":{{\"power_w\":{p:e}}}}}",
                json_escape(&c.name)
            ));
        }
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":{PID},\"tid\":{SIM_TID},\"name\":\"power_w:system\",\
             \"ts\":{at:.3},\"args\":{{\"power_w\":{:e}}}}}",
            sys_e / dt
        ));
    }

    // Instant events: power-state transitions and anomalies.
    for tr in &t.transitions {
        let name = t
            .components
            .get(tr.process as usize)
            .map_or_else(|| format!("proc{}", tr.process), |c| c.name.clone());
        events.push(format!(
            "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":{PID},\"tid\":{SIM_TID},\
             \"name\":\"{}: {} -> {}\",\"ts\":{:.3},\
             \"args\":{{\"process\":{},\"from\":\"{}\",\"to\":\"{}\"}}}}",
            json_escape(&name),
            tr.from,
            tr.to,
            ts(tr.at),
            tr.process,
            tr.from,
            tr.to
        ));
    }
    for a in &t.anomalies {
        events.push(format!(
            "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":{PID},\"tid\":{SIM_TID},\
             \"name\":\"{}\",\"ts\":{:.3},\"args\":{{}}}}",
            json_escape(&a.label),
            ts(a.at)
        ));
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};
    use crate::timeline::{PowerTimelineSink, TimelineConfig};
    use crate::{TraceRecord, TraceSink};

    fn sample_report() -> TimelineReport {
        let mut sink = PowerTimelineSink::new(TimelineConfig::new(100, 1_000.0));
        sink.record(&TraceRecord::EnergySample {
            component: 0,
            start: 10,
            end: 20,
            energy_j: 2e-9,
            provenance: "measured_iss",
        });
        sink.record(&TraceRecord::PowerTransition {
            at: 150,
            process: 0,
            from: "active",
            to: "power_gated",
        });
        sink.record(&TraceRecord::FaultInjected {
            at: 170,
            description: "bus \"stall\"".into(),
        });
        sink.report(&["cpu \"x\"".into()], 200)
    }

    #[test]
    fn perfetto_round_trips_through_the_json_parser() {
        let text = write_perfetto(&sample_report());
        let doc = json::parse(&text).expect("emitted JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert!(events.len() >= 6, "{}", events.len());
        // Every event has a phase; counter events carry numeric power.
        let mut counters = 0;
        let mut instants = 0;
        for e in events {
            match e.get("ph").and_then(JsonValue::as_str) {
                Some("C") => {
                    counters += 1;
                    let p = e
                        .get("args")
                        .and_then(|a| a.get("power_w"))
                        .and_then(JsonValue::as_f64)
                        .expect("counter carries power_w");
                    assert!(p.is_finite());
                }
                Some("i") => instants += 1,
                Some("M") => {}
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert_eq!(counters, 4, "2 windows x (1 comp + system)");
        assert_eq!(instants, 2, "1 transition + 1 anomaly");
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let text = write_perfetto(&sample_report());
        json::parse(&text).expect("quotes in names are escaped");
        assert!(text.contains("cpu \\\"x\\\""));
        assert!(text.contains("bus \\\"stall\\\""));
    }
}
