//! Per-layer self times by replay.
//!
//! A traced point's layer inputs are captured once: the behavioral trace
//! from `capture_traces`, plus what the point's own co-simulation emitted
//! (firing times and costs, bus grants, ledger charges). Each layer's
//! public entry point is then re-driven with those inputs, alone, under a
//! clock. A layer's time therefore never contains another layer's: the
//! accel pipeline's detailed closure returns a precomputed cost instead
//! of simulating, so its time is its own.

use crate::sink::Recording;
use busmodel::{Bus, MasterId};
use cachesim::Cache;
use cfsm::EventOccurrence;
use cfsm::TransitionId;
use co_estimation::{
    build_estimator, capture_traces, AccelPipeline, CoSimConfig, CoSimReport, ComponentId,
    DetailedCost, EnergyAccount, FiringCtx, FiringInputs, FiringRecord, SocDescription,
};
use desim::{EventQueue, SimTime};
use soctrace::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// Self time per layer, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub gatesim: f64,
    /// HW bus-wait idling (`HwTransition::idle_step` through the
    /// estimator's `wait_energy`).
    pub gatesim_idle: f64,
    pub iss: f64,
    pub cachesim: f64,
    pub busmodel: f64,
    pub accel: f64,
    pub cfsm: f64,
    pub desim: f64,
    pub account: f64,
}

impl LayerTimes {
    pub fn all(&self) -> [f64; 9] {
        [
            self.gatesim,
            self.gatesim_idle,
            self.iss,
            self.cachesim,
            self.busmodel,
            self.accel,
            self.cfsm,
            self.desim,
            self.account,
        ]
    }

    pub fn add(&mut self, o: &LayerTimes) {
        self.gatesim += o.gatesim;
        self.gatesim_idle += o.gatesim_idle;
        self.iss += o.iss;
        self.cachesim += o.cachesim;
        self.busmodel += o.busmodel;
        self.accel += o.accel;
        self.cfsm += o.cfsm;
        self.desim += o.desim;
        self.account += o.account;
    }
}

/// What replaying one point measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub times: LayerTimes,
    /// Events the replayed queue traffic pushed and popped.
    pub desim_events: u64,
    /// Gate output changes the replayed detailed firings committed.
    pub gate_events: u64,
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Calls `run` with the estimator inputs of a captured firing.
fn with_inputs<R>(f: &FiringRecord, run: impl FnOnce(&FiringInputs<'_>) -> R) -> R {
    let event_value = |e| f.event_values.get(&e).copied().unwrap_or(0);
    run(&FiringInputs {
        transition: f.transition,
        vars_in: &f.vars_in,
        event_value: &event_value,
        exec: &f.execution,
    })
}

/// The accel layers' view of a captured firing.
fn ctx<'a>(f: &'a FiringRecord, is_hw: &[bool]) -> FiringCtx<'a> {
    FiringCtx {
        proc: f.proc,
        path: f.execution.path,
        is_hw: is_hw[f.proc.0 as usize],
        macro_ops: &f.execution.macro_ops,
        now: 0,
    }
}

/// Replays one point's layer inputs through every layer. `rec` is what
/// the point's traced co-simulation emitted and `report` its report; the
/// replayed ledger must reproduce the report's per-component energies
/// bit for bit, which proves the sink saw every charge.
pub fn replay_point(
    soc: &SocDescription,
    config: &CoSimConfig,
    rec: &Recording,
    report: &CoSimReport,
) -> Result<Replay, String> {
    let net = &soc.network;
    let trace = capture_traces(soc);
    let mut t = LayerTimes {
        cfsm: time_behavioral(soc),
        ..LayerTimes::default()
    };

    // Which firings reach the detailed backend depends on the accel
    // layers, whose decisions depend on the detailed costs they observe:
    // settle both once, untimed, then time each side alone.
    let build = || {
        net.process_ids()
            .map(|p| build_estimator(net, p, config))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())
    };
    let mut estimators = build()?;
    let is_hw: Vec<bool> = estimators.iter().map(|e| e.is_hw()).collect();
    let mut tracer = Tracer::disabled();
    let mut detailed: Vec<(usize, DetailedCost)> = Vec::new();
    let mut pipeline = AccelPipeline::from_config(&config.accel, config);
    for (i, f) in trace.firings.iter().enumerate() {
        let est = &mut estimators[f.proc.0 as usize];
        pipeline.estimate(&ctx(f, &is_hw), &mut tracer, &mut || {
            let cost = with_inputs(f, |inputs| est.run_firing(inputs));
            detailed.push((i, cost));
            cost
        });
    }

    // Detailed estimators, fresh: gate-level for HW, the ISS for SW.
    let mut estimators = build()?;
    for &(i, want) in &detailed {
        let f = &trace.firings[i];
        let est = &mut estimators[f.proc.0 as usize];
        let (cost, dt) = with_inputs(f, |inputs| {
            let t0 = Instant::now();
            let cost = est.run_firing(inputs);
            (cost, secs(t0))
        });
        if is_hw[f.proc.0 as usize] {
            t.gatesim += dt;
        } else {
            t.iss += dt;
        }
        if cost != want {
            return Err(format!("firing {i} replayed to a different cost"));
        }
    }

    let gate_events = estimators
        .iter()
        .filter_map(|e| e.gate_stats())
        .map(|(_, events)| events)
        .sum();

    // Bus-wait idling of HW components: the netlist is clocked through
    // the wait when the firing was detailed.
    let t0 = Instant::now();
    for w in rec.idle_waits.iter().filter(|w| is_hw[w.process as usize]) {
        let est = &mut estimators[w.process as usize];
        black_box(est.wait_energy(TransitionId(w.transition), w.cycles, w.detailed));
    }
    t.gatesim_idle = secs(t0);

    // Instruction cache: each SW firing's fetch burst.
    if let Some(cfg) = &config.icache {
        let bursts: Vec<Vec<u64>> = trace
            .firings
            .iter()
            .filter_map(|f| estimators[f.proc.0 as usize].ifetch_addrs(f.transition, &f.execution))
            .collect();
        let mut cache = Cache::new(cfg.clone());
        let t0 = Instant::now();
        for b in &bursts {
            black_box(cache.access_batch(b.iter().copied()));
        }
        t.cachesim = secs(t0);
    }

    // Accel pipeline, fresh, with each detailed cost already known.
    let mut pipeline = AccelPipeline::from_config(&config.accel, config);
    let mut known = detailed.iter().map(|&(_, c)| c);
    let mut missing = false;
    let t0 = Instant::now();
    for f in &trace.firings {
        black_box(pipeline.estimate(&ctx(f, &is_hw), &mut tracer, &mut || {
            known.next().unwrap_or_else(|| {
                missing = true;
                DetailedCost {
                    cycles: 1,
                    energy_j: 0.0,
                }
            })
        }));
    }
    t.accel = secs(t0);
    if missing || known.next().is_some() {
        return Err("accel replay diverged from its settling pass".into());
    }

    // The k-th co-simulated firing of a process is matched with the k-th
    // behavioral firing of that process for its memory traffic and
    // emissions.
    let mut behavioral: Vec<Vec<usize>> = vec![Vec::new(); net.process_count()];
    for (i, f) in trace.firings.iter().enumerate() {
        behavioral[f.proc.0 as usize].push(i);
    }
    let mut seen = vec![0usize; net.process_count()];
    let mut requests = Vec::new();
    let mut dynamic_events: Vec<u64> = rec.grant_ends.clone();
    for f in &rec.firings {
        let p = f.process as usize;
        let end = f.at + f.cycles;
        dynamic_events.push(end); // the firing's completion
        let Some(&i) = behavioral[p].get(seen[p]) else {
            continue;
        };
        seen[p] += 1;
        let exec = &trace.firings[i].execution;
        dynamic_events.extend(exec.emitted.iter().map(|_| end));
        if !exec.mem_accesses.is_empty() {
            let ops: Vec<(u64, i64, bool)> = exec
                .mem_accesses
                .iter()
                .map(|a| (a.addr, a.value, a.write))
                .collect();
            let blocks = (ops.len() as u64).div_ceil(u64::from(config.bus.dma_block_size));
            requests.push((f.at, p, ops, f.cycles / blocks.max(1)));
            dynamic_events.push(f.at); // the bus kick
        }
    }

    // Bus: requests enqueued at their co-simulated issue times, blocks
    // granted in between, then drained.
    let mut bus = Bus::new(config.bus.clone());
    let masters: Vec<MasterId> = net
        .process_ids()
        .map(|p| bus.register_master(net.cfsm(p).name(), soc.priorities[p.0 as usize]))
        .collect();
    let t0 = Instant::now();
    let mut now = 0;
    for (at, p, ops, interval) in &requests {
        grant_until(&mut bus, &mut now, *at);
        bus.enqueue_paced(masters[*p], *at, ops, *interval);
    }
    grant_until(&mut bus, &mut now, u64::MAX);
    t.busmodel = secs(t0);

    // Event queue: the stimulus queued up front, as the master does, then
    // each completion, delivery and bus kick pushed and popped in time
    // order.
    dynamic_events.sort_unstable();
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut desim_events = 0u64;
    let t0 = Instant::now();
    for &(at, _) in &soc.stimulus {
        queue.push(SimTime::from_cycles(at), 0);
    }
    for &at in &dynamic_events {
        queue.push(SimTime::from_cycles(at), 1);
        while queue.peek_time().is_some_and(|q| q.cycles() <= at) {
            black_box(queue.pop());
            desim_events += 1;
        }
    }
    while let Some(ev) = queue.pop() {
        black_box(ev);
        desim_events += 1;
    }
    t.desim = secs(t0);

    // Ledger: every charge the co-simulation made, in order.
    let mut account = EnergyAccount::new(config.waveform_bucket_cycles);
    for p in net.process_ids() {
        account.add_component(net.cfsm(p).name());
    }
    account.add_component("bus");
    account.add_component("icache");
    let t0 = Instant::now();
    for &(c, start, end, e) in &rec.charges {
        account.record(ComponentId(c), start, end, e);
    }
    t.account = secs(t0);
    for c in 0..account.component_count() {
        let id = ComponentId(c as u32);
        let (got, want) = (
            account.totals(id).energy_j,
            report.account.totals(id).energy_j,
        );
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "replayed ledger component {c}: {got:e} J != report {want:e} J"
            ));
        }
    }

    Ok(Replay {
        times: t,
        desim_events,
        gate_events,
    })
}

/// Grants bus blocks at successive times up to `limit`: at each step
/// either a block is granted at `now` or time advances to when the bus
/// frees or the next paced block becomes ready.
fn grant_until(bus: &mut Bus, now: &mut u64, limit: u64) {
    while *now <= limit {
        if let Some(g) = bus.grant_block(*now) {
            *now = g.end;
            continue;
        }
        let next = if bus.busy_until() > *now {
            bus.busy_until()
        } else {
            match bus.next_ready_time() {
                Some(r) if r > *now => r,
                _ => return,
            }
        };
        if next > limit {
            return;
        }
        *now = next;
    }
}

/// Times the zero-delay behavioral simulation `capture_traces` performs,
/// calling only the CFSM layer (`broadcast`, `any_enabled`, `fire`).
fn time_behavioral(soc: &SocDescription) -> f64 {
    let net = &soc.network;
    let mut state = net.spawn();
    let mut stimulus = soc.stimulus.clone();
    stimulus.sort_by_key(|&(t, _)| t);
    let t0 = Instant::now();
    for &(_, occ) in &stimulus {
        net.broadcast(&mut state, occ);
        while let Some(p) = net.any_enabled(&state) {
            let Some(fr) = net.fire(&mut state, p) else {
                break;
            };
            for &(event, value) in &fr.execution.emitted {
                net.broadcast(&mut state, EventOccurrence { event, value });
            }
        }
    }
    secs(t0)
}
