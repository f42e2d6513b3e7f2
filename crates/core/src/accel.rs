//! The composable acceleration pipeline (§4).
//!
//! The master used to hold the three speedup techniques as ad-hoc
//! fields and route every firing through a hand-written `if` cascade.
//! They are now [`AccelLayer`]s stacked in an [`AccelPipeline`]: each
//! layer either *answers* a firing from its own state or *delegates*
//! down, and every layer observes the detailed cost whenever the stack
//! falls all the way through. The assembled order — macro-model, then
//! energy cache, then firing-level sampling, then the detailed backend —
//! reproduces the original dispatch exactly, but each technique is now
//! testable in isolation and new techniques slot in without touching
//! the master.

use crate::caching::EnergyCache;
use crate::config::{Acceleration, CoSimConfig};
use crate::estimator::DetailedCost;
use crate::macromodel::{characterize_hw, characterize_sw, ParameterFile};
use crate::report::Provenance;
use crate::sampling::SamplingConfig;
use cfsm::{MacroOp, PathId, ProcId};
use iss::PowerModel;
use soctrace::{TraceRecord, Tracer};
use std::collections::HashMap;
use std::fmt;

/// How a firing's cost was obtained (speedup accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostSource {
    /// Detailed simulator (ISS / gate-level).
    Detailed,
    /// Served by the energy cache.
    Cache,
    /// Computed by the macro-model.
    MacroModel,
    /// Reused under firing-level sampling.
    Sampled,
}

impl CostSource {
    /// Stable lowercase tag, used in trace records and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            CostSource::Detailed => "detailed",
            CostSource::Cache => "cache",
            CostSource::MacroModel => "macromodel",
            CostSource::Sampled => "sampling",
        }
    }

    /// The [`Provenance`] of an energy obtained from this source.
    /// `detailed` is the detailed path's provenance (gate-level or ISS),
    /// used when the firing fell through the whole acceleration stack.
    pub fn provenance(&self, detailed: Provenance) -> Provenance {
        match self {
            CostSource::Detailed => detailed,
            CostSource::Cache => Provenance::CacheReuse,
            CostSource::MacroModel => Provenance::MacroModel,
            CostSource::Sampled => Provenance::SampledScaled,
        }
    }
}

/// The per-firing facts an acceleration layer may key on.
#[derive(Debug, Clone, Copy)]
pub struct FiringCtx<'a> {
    /// The firing process.
    pub proc: ProcId,
    /// The control path the behavioral execution took.
    pub path: PathId,
    /// Whether the process is hardware-mapped.
    pub is_hw: bool,
    /// The behavioral execution's macro-op trace.
    pub macro_ops: &'a [MacroOp],
    /// Current simulation time, master cycles.
    pub now: u64,
}

/// One acceleration technique in the pipeline.
///
/// A layer either answers a firing from its own state
/// ([`try_answer`](AccelLayer::try_answer) returns `Some`) or delegates
/// to the layers below it; whenever the whole stack delegates to the
/// detailed backend, every layer gets to
/// [`observe_detailed`](AccelLayer::observe_detailed) the true cost.
pub trait AccelLayer: fmt::Debug {
    /// The layer's identifying name, used for [`CostSource`] mapping and
    /// trace records.
    fn name(&self) -> &'static str;

    /// Which [`CostSource`] an answer from this layer counts as.
    fn source(&self) -> CostSource;

    /// Tries to serve the firing from this layer's state.
    fn try_answer(&mut self, ctx: &FiringCtx<'_>, tracer: &mut Tracer) -> Option<DetailedCost>;

    /// Observes the detailed cost of a firing no layer answered.
    fn observe_detailed(&mut self, ctx: &FiringCtx<'_>, cost: DetailedCost) {
        let _ = (ctx, cost);
    }

    /// The energy cache, when this layer is [`CacheLayer`] (introspection
    /// for the Fig. 4 histograms).
    fn energy_cache(&self) -> Option<&EnergyCache> {
        None
    }

    /// The characterized software parameter file, when this layer is
    /// [`MacroModelLayer`].
    fn sw_parameter_file(&self) -> Option<&ParameterFile> {
        None
    }

    /// Sampling counters `(period, served, samples)`, when this layer
    /// is [`SamplingLayer`] (for the compaction-ratio report).
    fn sampling_stats(&self) -> Option<(u32, u64, u64)> {
        None
    }
}

/// Software/hardware power macro-modeling (§4.1): replaces the detailed
/// estimators entirely with characterized additive cost tables.
#[derive(Debug)]
pub struct MacroModelLayer {
    sw: ParameterFile,
    hw: ParameterFile,
}

impl MacroModelLayer {
    /// Characterizes both tables from the configured power models.
    pub fn characterize(config: &CoSimConfig) -> Self {
        MacroModelLayer {
            sw: characterize_sw(&PowerModel::of_kind(config.sw_power)),
            hw: characterize_hw(&config.synth, &config.hw_power),
        }
    }

    /// Builds from explicit tables.
    pub fn from_tables(sw: ParameterFile, hw: ParameterFile) -> Self {
        MacroModelLayer { sw, hw }
    }
}

impl AccelLayer for MacroModelLayer {
    fn name(&self) -> &'static str {
        "macromodel"
    }

    fn source(&self) -> CostSource {
        CostSource::MacroModel
    }

    fn try_answer(&mut self, ctx: &FiringCtx<'_>, _tracer: &mut Tracer) -> Option<DetailedCost> {
        let params = if ctx.is_hw { &self.hw } else { &self.sw };
        let (cycles, energy_j) = params.estimate(ctx.macro_ops);
        Some(DetailedCost {
            cycles: cycles.max(1),
            energy_j,
        })
    }

    fn sw_parameter_file(&self) -> Option<&ParameterFile> {
        Some(&self.sw)
    }
}

/// Energy and delay caching (§4.2): serves a `(process, path)` pair from
/// accumulated statistics once enough consistent samples exist.
#[derive(Debug)]
pub struct CacheLayer {
    cache: EnergyCache,
}

impl CacheLayer {
    /// Builds an empty cache with the given thresholds.
    pub fn new(config: crate::caching::CachingConfig) -> Self {
        CacheLayer {
            cache: EnergyCache::new(config),
        }
    }
}

impl AccelLayer for CacheLayer {
    fn name(&self) -> &'static str {
        "cache"
    }

    fn source(&self) -> CostSource {
        CostSource::Cache
    }

    fn try_answer(&mut self, ctx: &FiringCtx<'_>, tracer: &mut Tracer) -> Option<DetailedCost> {
        let key = (ctx.proc, ctx.path);
        let hit = self.cache.lookup(key);
        tracer.emit(|| TraceRecord::EnergyCacheLookup {
            at: ctx.now,
            process: ctx.proc.0,
            path: ctx.path.0,
            hit: hit.is_some(),
        });
        hit.map(|h| DetailedCost {
            cycles: h.cycles,
            energy_j: h.energy_j,
        })
    }

    fn observe_detailed(&mut self, ctx: &FiringCtx<'_>, cost: DetailedCost) {
        self.cache
            .record((ctx.proc, ctx.path), cost.energy_j, cost.cycles);
    }

    fn energy_cache(&self) -> Option<&EnergyCache> {
        Some(&self.cache)
    }
}

/// Firing-level statistical sampling (§4.3): after a detailed sample of
/// a `(process, path)` pair, its cost is reused for the next
/// `period - 1` firings of that pair.
#[derive(Debug)]
pub struct SamplingLayer {
    period: u32,
    state: HashMap<(ProcId, PathId), (u32, DetailedCost)>,
    /// Firings answered by reusing the last sample.
    served: u64,
    /// Detailed samples observed.
    samples: u64,
}

impl SamplingLayer {
    /// Builds an empty sampler with the given period.
    pub fn new(config: SamplingConfig) -> Self {
        SamplingLayer {
            period: config.period,
            state: HashMap::new(),
            served: 0,
            samples: 0,
        }
    }
}

impl AccelLayer for SamplingLayer {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn source(&self) -> CostSource {
        CostSource::Sampled
    }

    fn try_answer(&mut self, ctx: &FiringCtx<'_>, _tracer: &mut Tracer) -> Option<DetailedCost> {
        let key = (ctx.proc, ctx.path);
        if let Some((countdown, last)) = self.state.get_mut(&key) {
            if *countdown > 0 {
                *countdown -= 1;
                self.served += 1;
                return Some(*last);
            }
            // The reuse window closed: re-arm it and delegate so the
            // next detailed cost refreshes the sample.
            *countdown = self.period.saturating_sub(1);
        }
        None
    }

    fn observe_detailed(&mut self, ctx: &FiringCtx<'_>, cost: DetailedCost) {
        self.samples += 1;
        let entry = self
            .state
            .entry((ctx.proc, ctx.path))
            .or_insert((self.period.saturating_sub(1), cost));
        entry.1 = cost;
    }

    fn sampling_stats(&self) -> Option<(u32, u64, u64)> {
        Some((self.period, self.served, self.samples))
    }
}

/// The assembled stack of acceleration layers.
///
/// [`estimate`](AccelPipeline::estimate) walks the layers top-down; the
/// first answer wins, and a full fall-through runs the supplied detailed
/// closure and fans the true cost back out to every layer.
#[derive(Debug, Default)]
pub struct AccelPipeline {
    layers: Vec<Box<dyn AccelLayer>>,
    /// Firings answered per layer, parallel to `layers`.
    answered: Vec<u64>,
}

impl AccelPipeline {
    /// An empty pipeline: every firing goes to the detailed backend.
    pub fn none() -> Self {
        AccelPipeline::default()
    }

    /// Assembles the paper's layer order from an [`Acceleration`]
    /// config: macro-model, then energy cache, then sampling.
    pub fn from_config(accel: &Acceleration, config: &CoSimConfig) -> Self {
        let mut p = AccelPipeline::none();
        if accel.macromodel {
            p.push(Box::new(MacroModelLayer::characterize(config)));
        }
        if let Some(c) = &accel.caching {
            p.push(Box::new(CacheLayer::new(c.clone())));
        }
        if let Some(s) = &accel.sampling {
            p.push(Box::new(SamplingLayer::new(*s)));
        }
        p
    }

    /// Appends a layer at the bottom of the stack.
    pub fn push(&mut self, layer: Box<dyn AccelLayer>) {
        self.layers.push(layer);
        self.answered.push(0);
    }

    /// Number of stacked layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when no layer is stacked (pure detailed simulation).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The stacked layer names, top-down.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Routes one firing through the stack (see type docs). `detailed`
    /// is only invoked on a full fall-through.
    pub fn estimate(
        &mut self,
        ctx: &FiringCtx<'_>,
        tracer: &mut Tracer,
        detailed: &mut dyn FnMut() -> DetailedCost,
    ) -> (DetailedCost, CostSource) {
        let answered = &mut self.answered;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if let Some(cost) = layer.try_answer(ctx, tracer) {
                answered[i] += 1;
                let name = layer.name();
                tracer.emit(|| TraceRecord::LayerAnswered {
                    at: ctx.now,
                    process: ctx.proc.0,
                    layer: name,
                    cycles: cost.cycles,
                    energy_j: cost.energy_j,
                });
                return (cost, layer.source());
            }
        }
        let cost = detailed();
        for layer in &mut self.layers {
            layer.observe_detailed(ctx, cost);
        }
        (cost, CostSource::Detailed)
    }

    /// The energy cache, when a [`CacheLayer`] is stacked.
    pub fn energy_cache(&self) -> Option<&EnergyCache> {
        self.layers.iter().find_map(|l| l.energy_cache())
    }

    /// The characterized software parameter file, when a
    /// [`MacroModelLayer`] is stacked.
    pub fn sw_parameter_file(&self) -> Option<&ParameterFile> {
        self.layers.iter().find_map(|l| l.sw_parameter_file())
    }

    /// Firings answered per layer, top-down: `(layer name, count)`.
    pub fn answered_counts(&self) -> Vec<(&'static str, u64)> {
        self.layers
            .iter()
            .zip(&self.answered)
            .map(|(l, &n)| (l.name(), n))
            .collect()
    }

    /// Sampling counters `(period, served, samples)`, when a
    /// [`SamplingLayer`] is stacked.
    pub fn sampling_stats(&self) -> Option<(u32, u64, u64)> {
        self.layers.iter().find_map(|l| l.sampling_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching::CachingConfig;
    use soctrace::{MemorySink, SharedSink};

    fn ctx(now: u64) -> FiringCtx<'static> {
        FiringCtx {
            proc: ProcId(0),
            path: PathId(0),
            is_hw: false,
            macro_ops: &[],
            now,
        }
    }

    /// A stub detailed estimator: counts calls, returns a scripted cost.
    struct Stub {
        calls: u64,
        cost: DetailedCost,
    }

    impl Stub {
        fn new(cycles: u64, energy_j: f64) -> Self {
            Stub {
                calls: 0,
                cost: DetailedCost { cycles, energy_j },
            }
        }

        fn run(
            &mut self,
            pipe: &mut AccelPipeline,
            ctx: &FiringCtx<'_>,
        ) -> (DetailedCost, CostSource) {
            let mut tracer = Tracer::disabled();
            let cost = self.cost;
            let calls = &mut self.calls;
            pipe.estimate(ctx, &mut tracer, &mut || {
                *calls += 1;
                cost
            })
        }
    }

    #[test]
    fn empty_pipeline_always_runs_detailed() {
        let mut pipe = AccelPipeline::none();
        assert!(pipe.is_empty());
        let mut stub = Stub::new(10, 1.0);
        for i in 0..5 {
            let (cost, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::Detailed);
            assert_eq!(cost.cycles, 10);
        }
        assert_eq!(stub.calls, 5);
    }

    #[test]
    fn cache_layer_serves_after_iss_call_threshold() {
        // thresh_iss_calls = 2: the first two firings of a path are
        // detailed (building statistics), the third is served.
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(CacheLayer::new(CachingConfig {
            thresh_variance: 0.20,
            thresh_iss_calls: 2,
            keep_samples: false,
        })));
        let mut stub = Stub::new(7, 2.5);
        for want in [CostSource::Detailed, CostSource::Detailed, CostSource::Cache] {
            let (cost, source) = stub.run(&mut pipe, &ctx(0));
            assert_eq!(source, want);
            assert_eq!(cost.cycles, 7);
        }
        assert_eq!(stub.calls, 2);
    }

    #[test]
    fn cache_layer_respects_variance_threshold() {
        // Costs alternate 1.0 / 3.0 → coefficient of variation 0.5,
        // above the 0.2 threshold: the cache must never serve.
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(CacheLayer::new(CachingConfig {
            thresh_variance: 0.20,
            thresh_iss_calls: 2,
            keep_samples: false,
        })));
        let mut stub = Stub::new(5, 1.0);
        for i in 0..6 {
            stub.cost.energy_j = if i % 2 == 0 { 1.0 } else { 3.0 };
            let (_, source) = stub.run(&mut pipe, &ctx(0));
            assert_eq!(source, CostSource::Detailed, "firing {i}");
        }
        assert_eq!(stub.calls, 6);
    }

    #[test]
    fn cache_boundary_exact_variance_is_eligible() {
        // Eligibility is `cv <= thresh`: a path whose samples are all
        // identical (cv = 0) qualifies even at thresh_variance = 0.0.
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(CacheLayer::new(CachingConfig {
            thresh_variance: 0.0,
            thresh_iss_calls: 1,
            keep_samples: false,
        })));
        let mut stub = Stub::new(3, 4.0);
        let (_, s1) = stub.run(&mut pipe, &ctx(0));
        let (_, s2) = stub.run(&mut pipe, &ctx(0));
        assert_eq!(s1, CostSource::Detailed);
        assert_eq!(s2, CostSource::Cache);
    }

    #[test]
    fn sampling_layer_reuses_for_period_minus_one_firings() {
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(SamplingLayer::new(SamplingConfig { period: 3 })));
        let mut stub = Stub::new(9, 1.5);
        let sources: Vec<CostSource> =
            (0..7).map(|i| stub.run(&mut pipe, &ctx(i)).1).collect();
        assert_eq!(
            sources,
            vec![
                CostSource::Detailed, // sample
                CostSource::Sampled,
                CostSource::Sampled,
                CostSource::Detailed, // window closed → resample
                CostSource::Sampled,
                CostSource::Sampled,
                CostSource::Detailed,
            ]
        );
        assert_eq!(stub.calls, 3);
    }

    #[test]
    fn sampling_period_one_never_reuses() {
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(SamplingLayer::new(SamplingConfig { period: 1 })));
        let mut stub = Stub::new(2, 0.5);
        for i in 0..4 {
            let (_, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::Detailed);
        }
        assert_eq!(stub.calls, 4);
    }

    #[test]
    fn macromodel_layer_shadows_everything_below() {
        let mut pipe = AccelPipeline::none();
        // Empty tables suffice: the test contexts carry empty macro-op
        // traces, which price to the 1-cycle floor.
        pipe.push(Box::new(MacroModelLayer::from_tables(
            ParameterFile::new(),
            ParameterFile::new(),
        )));
        pipe.push(Box::new(SamplingLayer::new(SamplingConfig { period: 2 })));
        let mut stub = Stub::new(99, 9.9);
        for i in 0..3 {
            let (cost, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::MacroModel);
            assert_eq!(cost.cycles, 1, "empty macro-op trace floors at 1 cycle");
        }
        assert_eq!(stub.calls, 0, "macro-model never delegates");
    }

    #[test]
    fn fall_through_updates_every_layer() {
        // Cache above sampling: the first firing falls through both, and
        // both observe it — the cache accumulates a sample and the
        // sampler opens a reuse window.
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(CacheLayer::new(CachingConfig {
            thresh_variance: 0.20,
            thresh_iss_calls: 3,
            keep_samples: false,
        })));
        pipe.push(Box::new(SamplingLayer::new(SamplingConfig { period: 4 })));
        let mut stub = Stub::new(6, 2.0);
        let (_, s1) = stub.run(&mut pipe, &ctx(0));
        assert_eq!(s1, CostSource::Detailed);
        let cache = pipe.energy_cache().expect("cache layer stacked");
        assert_eq!(
            cache.path_stats((ProcId(0), PathId(0))).map(|s| s.energy.count()),
            Some(1),
            "cache observed the fall-through"
        );
        let (_, s2) = stub.run(&mut pipe, &ctx(1));
        assert_eq!(s2, CostSource::Sampled, "sampler observed it too");
    }

    #[test]
    fn pipeline_emits_layer_answered_records() {
        let mut pipe = AccelPipeline::none();
        pipe.push(Box::new(CacheLayer::new(CachingConfig {
            thresh_variance: 0.20,
            thresh_iss_calls: 1,
            keep_samples: false,
        })));
        let shared = SharedSink::new(MemorySink::new());
        let mut tracer = Tracer::new(Box::new(shared.clone()));
        let mut run = |tracer: &mut Tracer| {
            pipe.estimate(&ctx(0), tracer, &mut || DetailedCost {
                cycles: 4,
                energy_j: 1.0,
            })
        };
        let (_, s1) = run(&mut tracer);
        let (_, s2) = run(&mut tracer);
        assert_eq!((s1, s2), (CostSource::Detailed, CostSource::Cache));
        shared.with(|sink| {
            assert_eq!(sink.of_kind("energy_cache_lookup").len(), 2);
            assert_eq!(sink.of_kind("layer_answered").len(), 1);
        });
    }

    #[test]
    fn from_config_orders_macromodel_cache_sampling() {
        let accel = Acceleration {
            macromodel: true,
            caching: Some(CachingConfig::new()),
            sampling: Some(SamplingConfig { period: 4 }),
        };
        let pipe = AccelPipeline::from_config(&accel, &CoSimConfig::date2000_defaults());
        assert_eq!(pipe.layer_names(), vec!["macromodel", "cache", "sampling"]);
        assert!(pipe.energy_cache().is_some());
        assert!(pipe.sw_parameter_file().is_some());
        let empty = AccelPipeline::from_config(&Acceleration::none(), &CoSimConfig::default());
        assert!(empty.is_empty());
    }
}
