//! The generated systems the bit-identity contracts run on besides the
//! reference systems: the first live `socverify::gen` specs that map a
//! process to hardware, so gate-level simulation is on their path.
//!
//! `CORPUS_N` scales the corpus (default 40 locally; CI runs 200).

use co_estimation::SocDescription;

/// Systems in the corpus: `CORPUS_N`, or 40 when unset.
fn corpus_size() -> usize {
    std::env::var("CORPUS_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// The first [`corpus_size`] live generated systems with a
/// hardware-mapped process.
pub fn live_hw_systems() -> Vec<SocDescription> {
    first_live_hw_systems(corpus_size())
}

/// The first `n` live generated systems with a hardware-mapped process,
/// by ascending seed, each named `<family>_s<seed>`.
pub fn first_live_hw_systems(n: usize) -> Vec<SocDescription> {
    (0u64..)
        .map(|seed| socverify::gen::generate_live(seed).expect("generator"))
        .filter(|g| {
            g.network
                .process_ids()
                .any(|p| g.network.mapping(p) == cfsm::Implementation::Hw)
        })
        .take(n)
        .map(|g| SocDescription {
            name: g.name,
            network: g.network,
            stimulus: g.stimulus,
            priorities: g.priorities,
        })
        .collect()
}
