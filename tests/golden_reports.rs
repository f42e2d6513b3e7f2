//! Golden snapshot tests: the three seed systems' co-estimation reports
//! against committed golden files.
//!
//! Each golden is the stable textual serialization of a `CoSimReport`
//! (`CoSimReport::golden_snapshot`): fixed key order, bit-exact float
//! rendering. Any behavioral drift — a scheduling change, an energy model
//! tweak, a float reassociation — fails these tests with a readable diff
//! of the first diverging line.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_reports
//! ```
//!
//! then review the golden diff like any other code change.
//!
//! Setting `TRACE=ndjson` runs every golden with an NDJSON trace sink
//! attached (written under the target directory). The goldens must still
//! match bit-for-bit — tracing is pure observability — so CI runs the
//! suite once in this mode to pin that contract.
//!
//! `generated_corpus.txt` pins the generated corpus (`tests/corpus`) the
//! same way, one FNV-1a digest of each system's snapshot per line, so
//! every generated system has a committed energy reference, not only a
//! cross-kernel one. `CORPUS_N` sets how many of its lines are checked.

mod corpus;

use co_estimation::spec::parse_system;
use co_estimation::{
    snapshot_diff, Acceleration, CachingConfig, CoSimConfig, CoSimulator, FaultPlan,
    SamplingConfig, SocDescription,
};
use std::path::PathBuf;
use systems::{automotive, producer_consumer, tcpip};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, soc: SocDescription) {
    check_golden_with(name, soc, CoSimConfig::date2000_defaults());
}

/// Runs `soc` under `config` and returns its golden snapshot; under
/// `TRACE=ndjson` with an NDJSON sink attached, written to
/// `target/traces/<trace>.ndjson` (each corpus system has its own
/// file, `generated_corpus_<index>`).
fn run_snapshot(trace: &str, soc: SocDescription, config: CoSimConfig) -> String {
    let mut sim = CoSimulator::new(soc, config).expect("system builds");
    let trace_path = if std::env::var("TRACE").as_deref() == Ok("ndjson") {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/traces");
        std::fs::create_dir_all(&dir).expect("create trace dir");
        let path = dir.join(format!("{trace}.ndjson"));
        let file = std::fs::File::create(&path).expect("create trace file");
        sim.attach_trace(Box::new(soctrace::NdjsonSink::new(std::io::BufWriter::new(
            file,
        ))));
        Some(path)
    } else {
        None
    };
    let actual = sim.run().golden_snapshot();
    drop(sim.detach_trace()); // flush the NDJSON writer
    if let Some(path) = trace_path {
        let meta = std::fs::metadata(&path).expect("trace file exists");
        assert!(meta.len() > 0, "attached trace produced no records");
    }
    actual
}

/// Reads a committed golden, or panics with the regeneration command.
fn read_golden(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n\
             (regenerate with: UPDATE_GOLDENS=1 cargo test --test golden_reports)",
            path.display()
        )
    })
}

fn check_golden_with(name: &str, soc: SocDescription, config: CoSimConfig) {
    let actual = run_snapshot(name, soc, config);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = read_golden(&path);
    if let Some(diff) = snapshot_diff(&expected, &actual) {
        panic!(
            "golden report drift for `{name}`:\n{diff}\n\
             If this change is intentional, regenerate with:\n\
             UPDATE_GOLDENS=1 cargo test --test golden_reports\n\
             and review the golden diff."
        );
    }
}

#[test]
fn tcpip_golden_report() {
    check_golden(
        "tcpip",
        tcpip::build(&tcpip::TcpIpParams {
            num_packets: 8,
            len_range: (8, 24),
            pkt_period: 4_000,
            seed: 11,
        })
        .expect("valid params"),
    );
}

fn small_producer_consumer() -> SocDescription {
    producer_consumer::build(&producer_consumer::ProducerConsumerParams {
        num_pkts: 5,
        pkt_bytes: 24,
        start_period: 600,
        tick_period: 150,
        num_starts: 25,
    })
    .expect("valid params")
}

#[test]
fn producer_consumer_golden_report() {
    check_golden("producer_consumer", small_producer_consumer());
}

/// Deliveries off the stimulus's own schedule: the tick due at cycle
/// 1 050 is delayed onto cycle 1 200, where the stimulus delivers a tick
/// and a `START` too, and the `START` at cycle 1 800 is delivered twice.
#[test]
fn producer_consumer_delayed_tick_and_duplicated_start_golden_report() {
    check_golden_with(
        "producer_consumer_faults",
        small_producer_consumer(),
        CoSimConfig::date2000_defaults().with_faults(
            FaultPlan::new()
                .delay_event(1_000, "TIMER_TICK", 150)
                .duplicate_event(1_700, "START"),
        ),
    );
}

/// A tie between the stimulus and a dynamic event: hardware `source`
/// fires on `GO` at cycle 100 for three cycles and emits `X(1)` at
/// cycle 103, where the stimulus delivers `X(9)`. The stimulus goes
/// first on a tie, so `sink` fires on 9 and runs its loop, then on 1,
/// which is not above 9, and skips it; delivering the emission first
/// would run the loop on both firings.
const STIMULUS_TIE: &str = "\
system stimulus_tie

event GO
event X value

process source hw priority 2
  var n = 0
  state run
  transition run -> run on GO
    n = (+ n 1)
    emit X 1
  end

process sink hw priority 1
  var last = 0
  var acc = 0
  var i = 0
  state run
  transition run -> run on X
    if (> $X last)
      i = $X
      while (> i 0)
        acc = (+ acc i)
        i = (- i 1)
      end
    end
    last = $X
  end

stimulus 100 GO
stimulus 103 X 9
";

#[test]
fn stimulus_and_dynamic_event_tie_golden_report() {
    check_golden(
        "stimulus_tie",
        parse_system(STIMULUS_TIE).expect("valid spec"),
    );
}

#[test]
fn automotive_golden_report() {
    check_golden(
        "automotive",
        automotive::build(&automotive::AutomotiveParams {
            num_samples: 6,
            sample_period: 1_500,
            pulse_period: 200,
            target_speed: 25,
        })
        .expect("valid params"),
    );
}

fn small_tcpip() -> SocDescription {
    tcpip::build(&tcpip::TcpIpParams {
        num_packets: 8,
        len_range: (8, 24),
        pkt_period: 4_000,
        seed: 11,
    })
    .expect("valid params")
}

#[test]
fn tcpip_caching_golden_report() {
    check_golden_with(
        "tcpip_caching",
        small_tcpip(),
        CoSimConfig::date2000_defaults().with_accel(Acceleration::caching(CachingConfig {
            thresh_variance: 0.20,
            thresh_iss_calls: 2,
            keep_samples: false,
        })),
    );
}

#[test]
fn tcpip_macromodel_golden_report() {
    check_golden_with(
        "tcpip_macromodel",
        small_tcpip(),
        CoSimConfig::date2000_defaults().with_accel(Acceleration::macromodel()),
    );
}

#[test]
fn tcpip_sampling_golden_report() {
    check_golden_with(
        "tcpip_sampling",
        small_tcpip(),
        CoSimConfig::date2000_defaults()
            .with_accel(Acceleration::sampling(SamplingConfig { period: 4 })),
    );
}

/// Caching stacked above sampling: the one stack in which a firing that
/// falls through must feed two techniques (the cache's statistics and
/// the sampler's reuse window).
#[test]
fn tcpip_caching_sampling_golden_report() {
    check_golden_with(
        "tcpip_caching_sampling",
        small_tcpip(),
        CoSimConfig::date2000_defaults().with_accel(Acceleration {
            macromodel: false,
            caching: Some(CachingConfig {
                thresh_variance: 0.20,
                thresh_iss_calls: 2,
                keep_samples: false,
            }),
            sampling: Some(SamplingConfig { period: 4 }),
        }),
    );
}

/// Generated systems `generated_corpus.txt` pins; `UPDATE_GOLDENS=1`
/// rewrites all of them whatever `CORPUS_N` is.
const PINNED_CORPUS: usize = 200;

/// 64-bit FNV-1a digest of a snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn generated_corpus_digests() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let systems = if update {
        corpus::first_live_hw_systems(PINNED_CORPUS)
    } else {
        corpus::live_hw_systems()
    };
    let lines: Vec<String> = systems
        .into_iter()
        .enumerate()
        .map(|(i, soc)| {
            let name = soc.name.clone();
            let snapshot = run_snapshot(
                &format!("generated_corpus_{i:03}"),
                soc,
                CoSimConfig::date2000_defaults(),
            );
            format!("{name} {:016x}", fnv1a(snapshot.as_bytes()))
        })
        .collect();
    let path = golden_path("generated_corpus");
    if update {
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden file");
        return;
    }
    let expected = read_golden(&path);
    let expected: Vec<&str> = expected.lines().collect();
    assert!(
        lines.len() <= expected.len(),
        "CORPUS_N = {} exceeds the {} pinned systems",
        lines.len(),
        expected.len()
    );
    for (actual, want) in lines.iter().zip(&expected) {
        assert_eq!(
            actual, want,
            "generated corpus digest drift; if intentional, regenerate with:\n\
             UPDATE_GOLDENS=1 cargo test --test golden_reports"
        );
    }
}

#[test]
fn float_accumulation_debug_release_sentinel() {
    // A pure-float sentinel: if debug and release builds ever disagree on
    // float evaluation (e.g. through a future fast-math flag), this very
    // cheap test pinpoints it without a full system diff.
    let x: f64 = (0..100).map(|i| (i as f64) * 1.0e-7).sum();
    assert_eq!(x.to_bits(), 0x3f40385c67dfe32a);
}
