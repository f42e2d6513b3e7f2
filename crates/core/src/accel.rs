//! The acceleration cascade (§4).
//!
//! The paper stacks its three speedup techniques in one fixed
//! precedence, and [`AccelPipeline`] holds each one that is configured:
//! the macro-model prices every firing it sees; otherwise the energy
//! cache answers a `(process, path)` pair once its statistics qualify;
//! otherwise firing-level sampling reuses a recent sample; otherwise the
//! detailed estimator runs, and its cost feeds the cache and the
//! sampler.

use crate::caching::EnergyCache;
use crate::config::{Acceleration, CoSimConfig};
use crate::estimator::DetailedCost;
use crate::macromodel::{characterize_hw, characterize_sw, ParameterFile};
use crate::report::Provenance;
use cfsm::{MacroOp, PathId, ProcId};
use iss::PowerModel;
use soctrace::{TraceRecord, Tracer};
use std::collections::HashMap;

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

/// The per-firing facts the acceleration techniques key on.
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

/// Software/hardware power macro-modeling (§4.1): characterized additive
/// cost tables that replace the detailed estimators entirely.
#[derive(Debug)]
struct MacroModel {
    sw: ParameterFile,
    hw: ParameterFile,
    /// Firings priced.
    answered: u64,
}

/// Firing-level statistical sampling (§4.3): after a detailed sample of
/// a `(process, path)` pair, its cost is reused for the next
/// `period - 1` firings of that pair.
#[derive(Debug)]
struct Sampler {
    period: u32,
    state: HashMap<(ProcId, PathId), (u32, DetailedCost)>,
    /// Firings answered by reusing the last sample.
    served: u64,
    /// Detailed samples observed.
    samples: u64,
}

impl Sampler {
    /// Reuses the pair's last sample while its window is open. When the
    /// window has closed it is re-armed and `None` returned, so the next
    /// detailed cost refreshes the sample.
    fn reuse(&mut self, key: (ProcId, PathId)) -> Option<DetailedCost> {
        let (countdown, last) = self.state.get_mut(&key)?;
        if *countdown > 0 {
            *countdown -= 1;
            self.served += 1;
            return Some(*last);
        }
        *countdown = self.period.saturating_sub(1);
        None
    }

    fn observe(&mut self, key: (ProcId, PathId), cost: DetailedCost) {
        self.samples += 1;
        let entry = self
            .state
            .entry(key)
            .or_insert((self.period.saturating_sub(1), cost));
        entry.1 = cost;
    }
}

/// The paper's three acceleration techniques (§4), each present when
/// configured, stacked in one fixed order: macro-model, then energy
/// cache, then firing-level sampling, then the detailed estimator.
///
/// [`estimate`](AccelPipeline::estimate) asks them top-down; the first
/// answer wins, and a firing none answers runs the supplied detailed
/// closure and feeds its true cost to the cache's statistics and the
/// sampler's reuse window.
#[derive(Debug)]
pub struct AccelPipeline {
    macromodel: Option<MacroModel>,
    cache: Option<EnergyCache>,
    sampling: Option<Sampler>,
}

impl AccelPipeline {
    /// Stacks the techniques an [`Acceleration`] config switches on,
    /// characterizing the macro-model's cost tables from the configured
    /// power models.
    pub fn from_config(accel: &Acceleration, config: &CoSimConfig) -> Self {
        AccelPipeline {
            macromodel: accel.macromodel.then(|| MacroModel {
                sw: characterize_sw(&PowerModel::of_kind(config.sw_power)),
                hw: characterize_hw(&config.synth, &config.hw_power),
                answered: 0,
            }),
            cache: accel.caching.clone().map(EnergyCache::new),
            sampling: accel.sampling.map(|s| Sampler {
                period: s.period,
                state: HashMap::new(),
                served: 0,
                samples: 0,
            }),
        }
    }

    /// Routes one firing through the stack (see type docs). `detailed`
    /// is only invoked when no technique answers.
    pub fn estimate(
        &mut self,
        ctx: &FiringCtx<'_>,
        tracer: &mut Tracer,
        detailed: &mut dyn FnMut() -> DetailedCost,
    ) -> (DetailedCost, CostSource) {
        let key = (ctx.proc, ctx.path);
        if let Some(m) = &mut self.macromodel {
            m.answered += 1;
            let params = if ctx.is_hw { &m.hw } else { &m.sw };
            let (cycles, energy_j) = params.estimate(ctx.macro_ops);
            let cost = DetailedCost {
                cycles: cycles.max(1),
                energy_j,
            };
            return answered(ctx, tracer, cost, CostSource::MacroModel);
        }
        if let Some(cache) = &mut self.cache {
            let hit = cache.lookup(key);
            tracer.emit(|| TraceRecord::EnergyCacheLookup {
                at: ctx.now,
                process: ctx.proc.0,
                path: ctx.path.0,
                hit: hit.is_some(),
            });
            if let Some(h) = hit {
                let cost = DetailedCost {
                    cycles: h.cycles,
                    energy_j: h.energy_j,
                };
                return answered(ctx, tracer, cost, CostSource::Cache);
            }
        }
        if let Some(cost) = self.sampling.as_mut().and_then(|s| s.reuse(key)) {
            return answered(ctx, tracer, cost, CostSource::Sampled);
        }
        let cost = detailed();
        if let Some(cache) = &mut self.cache {
            cache.record(key, cost.energy_j, cost.cycles);
        }
        if let Some(s) = &mut self.sampling {
            s.observe(key, cost);
        }
        (cost, CostSource::Detailed)
    }

    /// The energy cache, when caching is configured (introspection for
    /// the Fig. 4 histograms).
    pub fn energy_cache(&self) -> Option<&EnergyCache> {
        self.cache.as_ref()
    }

    /// Firings answered per configured technique, in cascade order:
    /// `(technique, count)`, named by [`CostSource::as_str`], zeros
    /// included.
    pub fn answered_counts(&self) -> Vec<(&'static str, u64)> {
        let macromodel = self
            .macromodel
            .as_ref()
            .map(|m| (CostSource::MacroModel, m.answered));
        let cache = self
            .cache
            .as_ref()
            .map(|c| (CostSource::Cache, c.hit_miss().0));
        let sampling = self
            .sampling
            .as_ref()
            .map(|s| (CostSource::Sampled, s.served));
        [macromodel, cache, sampling]
            .into_iter()
            .flatten()
            .map(|(source, n)| (source.as_str(), n))
            .collect()
    }

    /// Sampling counters `(period, served, samples)`, when sampling is
    /// configured (for the compaction-ratio report).
    pub fn sampling_stats(&self) -> Option<(u32, u64, u64)> {
        self.sampling
            .as_ref()
            .map(|s| (s.period, s.served, s.samples))
    }
}

/// Traces a technique's answer and hands it back.
fn answered(
    ctx: &FiringCtx<'_>,
    tracer: &mut Tracer,
    cost: DetailedCost,
    source: CostSource,
) -> (DetailedCost, CostSource) {
    tracer.emit(|| TraceRecord::LayerAnswered {
        at: ctx.now,
        process: ctx.proc.0,
        layer: source.as_str(),
        cycles: cost.cycles,
        energy_j: cost.energy_j,
    });
    (cost, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching::CachingConfig;
    use crate::sampling::SamplingConfig;
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

    fn pipeline(accel: Acceleration) -> AccelPipeline {
        AccelPipeline::from_config(&accel, &CoSimConfig::date2000_defaults())
    }

    fn caching(thresh_variance: f64, thresh_iss_calls: u32) -> Acceleration {
        Acceleration::caching(CachingConfig {
            thresh_variance,
            thresh_iss_calls,
            keep_samples: false,
        })
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
        let mut pipe = pipeline(Acceleration::none());
        let mut stub = Stub::new(10, 1.0);
        for i in 0..5 {
            let (cost, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::Detailed);
            assert_eq!(cost.cycles, 10);
        }
        assert_eq!(stub.calls, 5);
        assert!(pipe.answered_counts().is_empty());
    }

    #[test]
    fn cache_serves_after_iss_call_threshold() {
        // thresh_iss_calls = 2: the first two firings of a path are
        // detailed (building statistics), the third is served.
        let mut pipe = pipeline(caching(0.20, 2));
        let mut stub = Stub::new(7, 2.5);
        for want in [
            CostSource::Detailed,
            CostSource::Detailed,
            CostSource::Cache,
        ] {
            let (cost, source) = stub.run(&mut pipe, &ctx(0));
            assert_eq!(source, want);
            assert_eq!(cost.cycles, 7);
        }
        assert_eq!(stub.calls, 2);
        assert_eq!(pipe.answered_counts(), vec![("cache", 1)]);
    }

    #[test]
    fn cache_respects_variance_threshold() {
        // Costs alternate 1.0 / 3.0 → coefficient of variation 0.5,
        // above the 0.2 threshold: the cache must never serve.
        let mut pipe = pipeline(caching(0.20, 2));
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
        let mut pipe = pipeline(caching(0.0, 1));
        let mut stub = Stub::new(3, 4.0);
        let (_, s1) = stub.run(&mut pipe, &ctx(0));
        let (_, s2) = stub.run(&mut pipe, &ctx(0));
        assert_eq!(s1, CostSource::Detailed);
        assert_eq!(s2, CostSource::Cache);
    }

    #[test]
    fn sampling_reuses_for_period_minus_one_firings() {
        let mut pipe = pipeline(Acceleration::sampling(SamplingConfig { period: 3 }));
        let mut stub = Stub::new(9, 1.5);
        let sources: Vec<CostSource> = (0..7).map(|i| stub.run(&mut pipe, &ctx(i)).1).collect();
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
        assert_eq!(pipe.sampling_stats(), Some((3, 4, 3)));
    }

    #[test]
    fn sampling_period_one_never_reuses() {
        let mut pipe = pipeline(Acceleration::sampling(SamplingConfig { period: 1 }));
        let mut stub = Stub::new(2, 0.5);
        for i in 0..4 {
            let (_, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::Detailed);
        }
        assert_eq!(stub.calls, 4);
    }

    #[test]
    fn macromodel_shadows_everything_below() {
        let mut pipe = pipeline(Acceleration {
            macromodel: true,
            caching: None,
            sampling: Some(SamplingConfig { period: 2 }),
        });
        // The test contexts carry empty software macro-op traces, which
        // price to the characterized activation cost alone.
        let sw = characterize_sw(&PowerModel::of_kind(
            CoSimConfig::date2000_defaults().sw_power,
        ));
        let (cycles, energy_j) = sw.estimate(&[]);
        let mut stub = Stub::new(99, 9.9);
        for i in 0..3 {
            let (cost, source) = stub.run(&mut pipe, &ctx(i));
            assert_eq!(source, CostSource::MacroModel);
            assert_eq!(cost.cycles, cycles.max(1));
            assert_eq!(cost.energy_j.to_bits(), energy_j.to_bits());
        }
        assert_eq!(stub.calls, 0, "macro-model never delegates");
        assert_eq!(
            pipe.answered_counts(),
            vec![("macromodel", 3), ("sampling", 0)]
        );
    }

    #[test]
    fn fall_through_updates_cache_and_sampler() {
        // Cache above sampling: the first firing falls through both, and
        // both observe it — the cache accumulates a sample and the
        // sampler opens a reuse window.
        let mut pipe = pipeline(Acceleration {
            macromodel: false,
            caching: Some(CachingConfig {
                thresh_variance: 0.20,
                thresh_iss_calls: 3,
                keep_samples: false,
            }),
            sampling: Some(SamplingConfig { period: 4 }),
        });
        let mut stub = Stub::new(6, 2.0);
        let (_, s1) = stub.run(&mut pipe, &ctx(0));
        assert_eq!(s1, CostSource::Detailed);
        let cache = pipe.energy_cache().expect("caching configured");
        assert_eq!(
            cache
                .path_stats((ProcId(0), PathId(0)))
                .map(|s| s.energy.count()),
            Some(1),
            "cache observed the fall-through"
        );
        let (_, s2) = stub.run(&mut pipe, &ctx(1));
        assert_eq!(s2, CostSource::Sampled, "sampler observed it too");
        assert_eq!(pipe.answered_counts(), vec![("cache", 0), ("sampling", 1)]);
    }

    #[test]
    fn pipeline_emits_layer_answered_records() {
        let mut pipe = pipeline(caching(0.20, 1));
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
        let pipe = pipeline(Acceleration {
            macromodel: true,
            caching: Some(CachingConfig::new()),
            sampling: Some(SamplingConfig { period: 4 }),
        });
        assert_eq!(
            pipe.answered_counts(),
            vec![("macromodel", 0), ("cache", 0), ("sampling", 0)]
        );
        assert!(pipe.energy_cache().is_some());
        assert_eq!(pipe.sampling_stats(), Some((4, 0, 0)));
    }
}
