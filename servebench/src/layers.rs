//! The traced run's per-layer replays. Each times the public entry
//! point of one layer below `serving` over the batches the workload's
//! engine evaluates, so a layer's cost is measured where its work
//! happens rather than inferred from the end-to-end figures.
//!
//! Batches are packed as admission packs them: per-table runs of full
//! 1,024-slot batches for plain lookups, one batch per request for
//! `lookup-open`, and row-aligned batches for fused softmax, whose
//! reciprocal pass is fed the exp pass's outputs. Lookup cost does not
//! depend on the values: the kernel clamps and indexes without
//! branches.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use nova::engine::{evaluate_fused_softmax, ApproximatorKind};
use nova::serving::{ServingEngine, ServingRequest, TableCache, TableKey};
use nova::spsc::{self, PushError};
use nova::vector_unit;
use nova_accel::AcceleratorConfig;
use nova_approx::QuantizedPwl;
use nova_fixed::{Fixed, FixedBatch, Q4_12};
use nova_noc::sim::BroadcastSim;
use nova_noc::LineConfig;
use nova_synth::TechModel;

use crate::stats::median;
use crate::traffic::{self, Workload, KIND, NEURONS, ROUTERS};

/// Wall time each replay keeps repeating passes for.
const BUDGET: Duration = Duration::from_millis(150);
/// Passes every replay makes whatever the budget.
const MIN_PASSES: usize = 5;

/// One batch the workload's engine evaluates, and the resident table
/// (an index into [`Replay::tables`]) it is evaluated with.
pub struct Replay {
    tables: Vec<Arc<QuantizedPwl>>,
    steps: Vec<(usize, FixedBatch)>,
}

impl Replay {
    /// Packs `slates` the way the workload's engine does. Single-table
    /// workloads get the softmax-exp table as a second table, so table
    /// switches can be timed on every workload.
    pub fn capture(
        workload: Workload,
        slates: &[Vec<ServingRequest>],
        cache: &TableCache,
    ) -> Result<Self, String> {
        let mut keys = workload.tables();
        if keys.len() == 1 {
            keys.push(traffic::exp());
        }
        let tables = keys
            .iter()
            .map(|&k| cache.get_or_fit(k).map_err(|e| format!("fit {k:?}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut steps = Vec::new();
        match workload {
            Workload::LookupBulk => {
                for (t, key) in keys.iter().enumerate() {
                    let lanes: Vec<Fixed> = slates[0]
                        .iter()
                        .filter(|r| r.plan.single_lookup() == Some(*key))
                        .flat_map(|r| r.inputs.iter().copied())
                        .collect();
                    steps.extend(lanes.chunks(ROUTERS * NEURONS).map(|c| (t, batch_of(c))));
                }
            }
            Workload::LookupOpen => {
                steps.extend(slates.iter().map(|s| (0, batch_of(&s[0].inputs))));
            }
            Workload::FusedAttention => {
                let mut lanes: Vec<Fixed> = Vec::new();
                for row in &slates[0] {
                    if lanes.len() + row.inputs.len() > ROUTERS * NEURONS {
                        push_fused(&mut steps, &tables, &lanes);
                        lanes.clear();
                    }
                    lanes.extend_from_slice(&row.inputs);
                }
                push_fused(&mut steps, &tables, &lanes);
            }
        }
        Ok(Self { tables, steps })
    }

    fn lanes(&self) -> u64 {
        (self.steps.len() * ROUTERS * NEURONS) as u64
    }
}

fn batch_of(lanes: &[Fixed]) -> FixedBatch {
    let mut batch = FixedBatch::new(ROUTERS, NEURONS, Fixed::zero(Q4_12));
    batch.as_mut_slice()[..lanes.len()].copy_from_slice(lanes);
    batch
}

/// One fused batch: the exp pass over the rows, then the reciprocal
/// pass over its outputs.
fn push_fused(steps: &mut Vec<(usize, FixedBatch)>, tables: &[Arc<QuantizedPwl>], lanes: &[Fixed]) {
    let exp_in = batch_of(lanes);
    let mut recip_in = exp_in.clone();
    tables[0].eval_to_slice(exp_in.as_slice(), recip_in.as_mut_slice());
    steps.push((0, exp_in));
    steps.push((1, recip_in));
}

/// Repeats `pass` until [`BUDGET`] is spent (at least [`MIN_PASSES`]
/// times) and returns the median of its `(ns, units)` ratios.
fn median_per_unit(mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || start.elapsed() < BUDGET {
        let (ns, units) = pass();
        samples.push(ns as f64 / units.max(1) as f64);
    }
    median(&samples)
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).expect("a pass lasts under 584 years")
}

/// The metric-name suffix of each kind.
pub fn kind_slug(kind: ApproximatorKind) -> &'static str {
    match kind {
        ApproximatorKind::NovaNoc => "nova",
        ApproximatorKind::PerCoreLut => "per_core_lut",
        ApproximatorKind::PerNeuronLut => "per_neuron_lut",
        ApproximatorKind::NvdlaSdp => "sdp",
    }
}

fn line() -> LineConfig {
    LineConfig::paper_default(ROUTERS, NEURONS)
}

/// `VectorUnit::lookup_batch_into` ns per batch for `kind`, replaying
/// the captured batches (table switches between runs are made but not
/// timed).
pub fn lookup_ns_per_batch(replay: &Replay, kind: ApproximatorKind) -> Result<f64, String> {
    let first = replay.steps.first().map_or(0, |s| s.0);
    let mut unit =
        vector_unit::build(kind, line(), &replay.tables[first]).map_err(|e| e.to_string())?;
    let mut loaded = first;
    let mut out = FixedBatch::empty();
    let mut failure = None;
    let ns = median_per_unit(|| {
        let mut ns = 0;
        for (t, batch) in &replay.steps {
            if *t != loaded {
                if let Err(e) = unit.switch_table(&replay.tables[*t]) {
                    failure.get_or_insert(e.to_string());
                }
                loaded = *t;
            }
            let t0 = Instant::now();
            if let Err(e) = unit.lookup_batch_into(batch, &mut out) {
                failure.get_or_insert(e.to_string());
            }
            ns += ns_since(t0);
        }
        (ns, replay.steps.len() as u64)
    });
    failure.map_or(Ok(ns), Err)
}

/// `VectorUnit::switch_table` ns per switch for `kind`, alternating
/// between the replay's first two tables.
pub fn switch_ns(replay: &Replay, kind: ApproximatorKind) -> Result<f64, String> {
    const SWITCHES: u64 = 16;
    let mut unit =
        vector_unit::build(kind, line(), &replay.tables[0]).map_err(|e| e.to_string())?;
    let mut failure = None;
    let ns = median_per_unit(|| {
        let t0 = Instant::now();
        for i in 0..SWITCHES {
            if let Err(e) = unit.switch_table(&replay.tables[1 - (i % 2) as usize]) {
                failure.get_or_insert(e.to_string());
            }
        }
        (ns_since(t0), SWITCHES)
    });
    failure.map_or(Ok(ns), Err)
}

/// `BroadcastSim::run_flat` ns per evaluated lane (padding included)
/// and `BroadcastSim::new` ns per schedule build.
pub fn noc(replay: &Replay) -> Result<(f64, f64), String> {
    let build = |t: usize| BroadcastSim::new(line(), &replay.tables[t]).map_err(|e| e.to_string());
    let mut sims = (0..replay.tables.len())
        .map(build)
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = vec![Fixed::zero(Q4_12); ROUTERS * NEURONS];
    let mut failure = None;
    let run_ns = median_per_unit(|| {
        let t0 = Instant::now();
        for (t, batch) in &replay.steps {
            if let Err(e) = sims[*t].run_flat(batch.as_slice(), &mut out) {
                failure.get_or_insert(e.to_string());
            }
        }
        (ns_since(t0), replay.lanes())
    });
    let mut next = 0;
    let build_ns = median_per_unit(|| {
        next = (next + 1) % replay.tables.len();
        let t0 = Instant::now();
        let sim = build(next);
        let ns = ns_since(t0);
        if let Err(e) = sim {
            failure.get_or_insert(e);
        }
        (ns, 1)
    });
    failure.map_or(Ok((run_ns, build_ns)), Err)
}

/// `QuantizedPwl::eval_to_slice` ns per evaluated lane (padding
/// included), over the same batches.
pub fn approx_eval_ns(replay: &Replay) -> f64 {
    let mut out = vec![Fixed::zero(Q4_12); ROUTERS * NEURONS];
    median_per_unit(|| {
        let t0 = Instant::now();
        for (t, batch) in &replay.steps {
            replay.tables[*t].eval_to_slice(batch.as_slice(), &mut out);
        }
        (ns_since(t0), replay.lanes())
    })
}

/// `TableCache::snapshot` and `TableCache::restore` ns, for a cache
/// holding the workload's tables.
pub fn snapshot_restore_ns(keys: &[TableKey]) -> Result<(f64, f64), String> {
    let cache = TableCache::new();
    for &k in keys {
        cache.get_or_fit(k).map_err(|e| e.to_string())?;
    }
    let snapshot_ns = median_per_unit(|| {
        let t0 = Instant::now();
        let snap = cache.snapshot();
        let ns = ns_since(t0);
        drop(snap);
        (ns, 1)
    });
    let snapshot = cache.snapshot();
    let mut failure = None;
    let restore_ns = median_per_unit(|| {
        let fresh = TableCache::new();
        let t0 = Instant::now();
        let restored = fresh.restore(&snapshot);
        let ns = ns_since(t0);
        match restored {
            Ok(n) if n == keys.len() => {}
            other => {
                failure.get_or_insert(format!("restore returned {other:?}"));
            }
        }
        (ns, 1)
    });
    failure.map_or(Ok((snapshot_ns, restore_ns)), Err)
}

/// Half the round trip of a ping-pong over two `spsc::ring`s between
/// this thread and an echo thread, both spinning.
pub fn spsc_hop_ns() -> f64 {
    const TRIPS: u64 = 1_000;
    const STOP: u64 = u64::MAX;
    let (to_tx, to_rx) = spsc::ring::<u64>(4);
    let (back_tx, back_rx) = spsc::ring::<u64>(4);
    thread::scope(|s| {
        s.spawn(move || loop {
            match to_rx.try_pop() {
                Some(STOP) => return,
                Some(mut v) => loop {
                    match back_tx.try_push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => v = back,
                        Err(PushError::Closed(_)) => return,
                    }
                },
                None => std::hint::spin_loop(),
            }
        });
        let ns = median_per_unit(|| {
            let t0 = Instant::now();
            for i in 0..TRIPS {
                let mut v = i;
                while let Err(PushError::Full(back)) = to_tx.try_push(v) {
                    v = back;
                }
                while back_rx.try_pop().is_none() {
                    std::hint::spin_loop();
                }
            }
            (ns_since(t0), 2 * TRIPS)
        });
        let mut stop = STOP;
        while let Err(PushError::Full(back)) = to_tx.try_push(stop) {
            stop = back;
        }
        ns
    })
}

/// The analytic twin minus the functional engine on the fused slate's
/// row widths: `(table switches, makespan cycles)`, both engines on a
/// TPU-v4-like host with one shard. Exact counts; ROADMAP item 2 drives
/// both to 0.
pub fn fused_twin_delta(seed: u64) -> Result<(i64, i64), String> {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    let cache = TableCache::new();
    let slate = Workload::FusedAttention.slates(seed).remove(0);
    let mut engine = ServingEngine::builder(KIND)
        .host(&tech, &host)
        .cache(&cache)
        .plan(&traffic::fused_plan())
        .shards(1)
        .build()
        .map_err(|e| e.to_string())?;
    engine.serve(&slate).map_err(|e| e.to_string())?;
    let rows: Vec<u64> = slate.iter().map(|r| r.inputs.len() as u64).collect();
    let twin = evaluate_fused_softmax(&host, &rows, KIND, 1).map_err(|e| e.to_string())?;
    let signed = |v: u64| i64::try_from(v).expect("counts fit i64");
    Ok((
        signed(twin.table_switches) - signed(engine.stats().table_switches),
        signed(twin.makespan_nl_cycles) - signed(engine.makespan_cycles()),
    ))
}
