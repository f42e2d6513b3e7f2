//! Helpers shared by the sweep tests: the Fig. 7 system and the
//! standalone run every bus-sweep point is checked against.

use co_estimation::{CoSimConfig, CoSimReport, CoSimulator, SocDescription};
use soctrace::{MetricsSink, SharedSink};
use systems::tcpip::{self, TcpIpParams};

pub fn fig7_soc() -> SocDescription {
    tcpip::build(&TcpIpParams::fig7_defaults()).expect("valid params")
}

/// The bus masters whose priority order the Fig. 7 sweep permutes.
pub fn fig7_procs(soc: &SocDescription) -> Vec<cfsm::ProcId> {
    ["create_pack", "ip_check", "checksum"]
        .iter()
        .map(|n| soc.network.process_by_name(n).expect("process exists"))
        .collect()
}

/// One bus-sweep point run on its own: `perm` gets descending
/// priorities, as the sweep assigns them. Called outside any
/// `gatesim::FiringMemoScope`, it simulates every hardware firing.
pub fn standalone_bus_point(
    soc: &SocDescription,
    config: &CoSimConfig,
    perm: &[cfsm::ProcId],
    dma: u32,
    sink: Option<SharedSink<MetricsSink>>,
) -> CoSimReport {
    let mut variant = soc.clone();
    let n = perm.len() as u8;
    for (rank, &p) in perm.iter().enumerate() {
        variant.set_priority(p, n - rank as u8);
    }
    let mut sim =
        CoSimulator::new(variant, config.with_dma_block_size(dma)).expect("system builds");
    if let Some(sink) = sink {
        sim.attach_trace(Box::new(sink));
    }
    sim.run()
}
