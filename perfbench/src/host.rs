//! Host-speed calibration.
//!
//! A shared host's speed drifts by tens of percent over seconds to
//! minutes, and that drift moves every wall-clock figure of a run
//! together. Between repetitions, outside the timed region, the run
//! times a fixed reference kernel that owes nothing to the program under
//! test; the end-to-end times are then expressed at the kernel's nominal
//! speed, so that a slow stretch of host time does not read as a slow
//! program. The raw figures and the measured speed go to the metadata.

use std::hint::black_box;
use std::time::Instant;

/// Kernel operations per probe (about a millisecond).
const PROBE_OPS: u64 = 400_000;
/// The reference speed the normalized figures are expressed at, kernel
/// operations per second.
pub const NOMINAL_OPS_PER_S: f64 = 5.0e8;

/// Accumulates timed runs of the reference kernel.
pub struct HostSpeed {
    table: Vec<u32>,
    ops: u64,
    secs: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            table: vec![0; 1 << 16],
            ops: 0,
            secs: 0.0,
        }
    }

    /// Times one probe: a pseudo-random walk of read-modify-writes over a
    /// 256 KiB table.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ self.ops;
        let mut acc = 0u64;
        for _ in 0..PROBE_OPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 48) as usize;
            self.table[i] = self.table[i].wrapping_add(x as u32);
            acc ^= u64::from(self.table[(i * 7) & 0xFFFF]);
        }
        black_box(acc);
        self.secs += t0.elapsed().as_secs_f64();
        self.ops += PROBE_OPS;
    }

    /// Measured kernel speed, operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Measured speed over nominal speed: below 1 on a slow host. A time
    /// measured on this host times this factor is the time at nominal
    /// speed.
    pub fn factor(&self) -> f64 {
        self.ops_per_s() / NOMINAL_OPS_PER_S
    }
}
