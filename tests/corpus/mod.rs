//! The generated systems the bit-identity contracts run on besides the
//! reference systems: the first live `socverify::gen` specs that map a
//! process to hardware, so gate-level simulation is on their path.

use co_estimation::SocDescription;

/// Systems in the corpus.
const SYSTEMS: usize = 40;

/// The first [`SYSTEMS`] live generated systems with a hardware-mapped
/// process, by ascending seed, each named `<family>_s<seed>`.
pub fn live_hw_systems() -> Vec<SocDescription> {
    (0u64..)
        .map(|seed| socverify::gen::generate_live(seed).expect("generator"))
        .filter(|g| {
            g.network
                .process_ids()
                .any(|p| g.network.mapping(p) == cfsm::Implementation::Hw)
        })
        .take(SYSTEMS)
        .map(|g| SocDescription {
            name: g.name,
            network: g.network,
            stimulus: g.stimulus,
            priorities: g.priorities,
        })
        .collect()
}
