//! Workspace-level property tests: the full mapper → overlay → unit
//! pipeline under randomized settings.
//!
//! Checked over deterministic pseudo-random stimulus from the workspace
//! PRNG (`nova_fixed::rng`) instead of proptest, per the no-external-
//! dependency policy.

use nova::engine::{evaluate_fused_softmax, evaluate_multi_stream};
use nova::serving::{
    FaultInjector, FaultPolicy, Plan, ServingEngine, ServingRequest, TableCache, TableKey,
};
use nova::vector_unit::build;
use nova::{
    ApproximatorKind, FixedBatch, LutVariant, LutVectorUnit, Mapper, NovaVectorUnit,
    SegmentedNovaUnit, VectorUnit,
};
use nova_accel::AcceleratorConfig;
use nova_approx::Activation;
use nova_fixed::rng::StdRng;
use nova_fixed::{Fixed, Rounding, Q4_12};
use nova_noc::LineConfig;
use nova_synth::TechModel;
use nova_workloads::bert::OpCensus;

const ACTIVATIONS: [Activation; 5] = [
    Activation::Exp,
    Activation::Gelu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Silu,
];

fn pick_activation(rng: &mut StdRng) -> Activation {
    ACTIVATIONS[rng.gen_range(0..ACTIVATIONS.len())]
}

/// For any activation, segment budget, geometry and inputs: the NOVA
/// unit, the segmented NOVA unit and both LUT baselines agree bit for
/// bit, and all equal the compiled table.
#[test]
fn all_units_agree_under_random_mappings() {
    let mut rng = StdRng::seed_from_u64(0xD001);
    for _ in 0..24 {
        let a = pick_activation(&mut rng);
        let segments = rng.gen_range(2usize..17);
        let routers = rng.gen_range(1usize..11);
        let neurons = rng.gen_range(1usize..7);
        let reach = rng.gen_range(1usize..11);
        let n_raws = rng.gen_range(1usize..64);
        let raws: Vec<i64> = (0..n_raws)
            .map(|_| rng.gen_range(i64::from(i16::MIN)..i64::from(i16::MAX) + 1))
            .collect();
        let tech = TechModel::cmos22();
        let plan = Mapper::paper_default()
            .with_segments(segments)
            .compile(&[a], &tech, routers, 1.0, 1.0)
            .unwrap();
        let table = &plan.mappings[0].table;
        let mut config = LineConfig::paper_default(routers, neurons);
        config.max_hops_per_cycle = reach;
        let inputs: Vec<Vec<Fixed>> = (0..routers)
            .map(|r| {
                (0..neurons)
                    .map(|n| {
                        let raw = raws[(r * neurons + n) % raws.len()];
                        Fixed::from_raw(raw, Q4_12).unwrap()
                    })
                    .collect()
            })
            .collect();
        let mut nova = NovaVectorUnit::new(config, table).unwrap();
        let mut seg = SegmentedNovaUnit::new(config, table).unwrap();
        let mut pn = LutVectorUnit::new(table, routers, neurons, LutVariant::PerNeuron);
        let mut pc = LutVectorUnit::new(table, routers, neurons, LutVariant::PerCore);
        let x = nova.lookup_batch(&inputs).unwrap();
        assert_eq!(x, seg.lookup_batch(&inputs).unwrap());
        assert_eq!(x, pn.lookup_batch(&inputs).unwrap());
        assert_eq!(x, pc.lookup_batch(&inputs).unwrap());
        for (row_out, row_in) in x.iter().zip(&inputs) {
            for (&o, &i) in row_out.iter().zip(row_in) {
                assert_eq!(o, table.eval(i));
            }
        }
    }
}

/// The flat zero-copy pipeline is functionally invisible: for every
/// approximator kind, random geometry and random inputs, the
/// `FixedBatch` + `lookup_batch_into` path is bit-identical to the
/// legacy nested path, and recycled output buffers stay bit-exact
/// across reuse.
#[test]
fn flat_path_bit_identical_to_nested_for_all_kinds_under_random_geometries() {
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    let cache = TableCache::new();
    for round in 0..12 {
        let activation = pick_activation(&mut rng);
        let routers = rng.gen_range(1usize..9);
        let neurons = rng.gen_range(1usize..17);
        let table = cache
            .get_or_fit(TableKey::paper(activation))
            .expect("paper keys fit");
        let config = LineConfig::paper_default(routers, neurons);
        let inputs: Vec<Vec<Fixed>> = (0..routers)
            .map(|_| {
                (0..neurons)
                    .map(|_| {
                        Fixed::from_f64(rng.gen_range(-8.0..8.0), Q4_12, Rounding::NearestEven)
                    })
                    .collect()
            })
            .collect();
        let flat = FixedBatch::from_rows(&inputs).expect("rectangular by construction");
        let mut out = FixedBatch::empty();
        for kind in ApproximatorKind::all() {
            let mut nested_unit = build(kind, config, &table).unwrap();
            let mut flat_unit = build(kind, config, &table).unwrap();
            let nested = nested_unit.lookup_batch(&inputs).unwrap();
            // Reuse one output buffer across kinds and rounds — recycling
            // must never leak a previous batch's words.
            flat_unit.lookup_batch_into(&flat, &mut out).unwrap();
            assert_eq!(
                out.to_rows(),
                nested,
                "round {round}: {} diverged on a {routers}x{neurons} grid",
                kind.label()
            );
        }
    }
}

/// Serving through the flat pipeline is bit-identical to the sequential
/// reference for every kind × shard geometry × ragged tail shape (query
/// totals chosen coprime to the batch capacity so tail batches are
/// genuinely partial) × activation tenancy mix — and steady-state
/// repeats mint no buffers, even though multi-table slates keep
/// re-programming the workers' units between activation runs.
#[test]
fn flat_serving_bit_identical_across_kinds_geometries_and_ragged_tails() {
    let mut rng = StdRng::seed_from_u64(0xF1A8);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    for (routers, neurons) in [(2usize, 5usize), (4, 8)] {
        for queries_per_stream in [1usize, 13, 61] {
            // Streams 0/2 hit the GELU table, stream 1 the exp table —
            // a genuinely mixed-activation slate in arrival order.
            let requests: Vec<ServingRequest> = (0..3)
                .map(|stream| {
                    ServingRequest::new(
                        stream,
                        if stream % 2 == 0 { gelu } else { exp },
                        (0..queries_per_stream)
                            .map(|_| {
                                Fixed::from_f64(
                                    rng.gen_range(-6.0..6.0),
                                    Q4_12,
                                    Rounding::NearestEven,
                                )
                            })
                            .collect(),
                    )
                })
                .collect();
            for kind in ApproximatorKind::all() {
                let mut engine = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(routers, neurons))
                    .cache(&cache)
                    .tables([gelu, exp])
                    .shards(2)
                    .build()
                    .unwrap();
                let reference = engine.serve_reference(&requests);
                assert_eq!(
                    engine.serve(&requests).unwrap(),
                    reference,
                    "{} diverged: {routers}x{neurons}, {queries_per_stream} q/stream",
                    kind.label()
                );
                let minted = engine.buffers_created();
                assert_eq!(engine.serve(&requests).unwrap(), reference);
                assert_eq!(
                    engine.buffers_created(),
                    minted,
                    "steady state minted buffers for {}",
                    kind.label()
                );
                assert_eq!(
                    engine.stats().table_switches > 0,
                    queries_per_stream > 0,
                    "mixed tenancy must re-program {} workers",
                    kind.label()
                );
            }
        }
    }
}

/// Fat work units are functionally invisible: for every approximator
/// kind × worker count {1, 2, 4}, mixed-activation slates whose depth
/// drives the adaptive `K = ⌈run_batches / 2·shards⌉ ∧ 8` through 1, 2,
/// 3 and 8 serve bit-identically to the sequential reference, with
/// ragged tail batches; steady-state repeats mint no input buffers
/// through the SPSC rings, and the job ledger shows each run packed
/// into exactly `⌈run_batches / K⌉` units.
#[test]
fn fat_units_bit_identical_across_workers_kinds_and_unit_caps() {
    let mut rng = StdRng::seed_from_u64(0xFA7);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    // 3×7 grid (capacity 21). Four streams alternate GELU and exp, so
    // each slate holds two runs of `2 × queries_per_stream` queries.
    let (routers, neurons) = (3usize, 7usize);
    let mut slate = |queries_per_stream: usize| -> Vec<ServingRequest> {
        (0..4)
            .map(|stream| {
                ServingRequest::new(
                    stream,
                    if stream % 2 == 0 { gelu } else { exp },
                    (0..queries_per_stream)
                        .map(|_| {
                            Fixed::from_f64(rng.gen_range(-6.0..6.0), Q4_12, Rounding::NearestEven)
                        })
                        .collect(),
                )
            })
            .collect()
    };
    // 94-query runs are 5 batches (4 full + a 10-query tail): K = 3, 2,
    // 1 at 1, 2, 4 workers. 320-query runs are 16 batches (15 full + a
    // 5-query tail): K = 8 on one worker.
    let shallow = slate(47);
    let deep = slate(160);
    let cases = [
        (&shallow, 1usize, 3usize),
        (&shallow, 2, 2),
        (&shallow, 4, 1),
        (&deep, 1, 8),
    ];
    for kind in ApproximatorKind::all() {
        for (requests, workers, k) in cases {
            let mut engine = ServingEngine::builder(kind)
                .line(LineConfig::paper_default(routers, neurons))
                .cache(&cache)
                .tables([gelu, exp])
                .shards(workers)
                .build()
                .unwrap();
            let label = format!("{} w={workers} K={k}", kind.label());
            let reference = engine.serve_reference(requests);
            assert_eq!(engine.serve(requests).unwrap(), reference, "{label}");
            let minted = engine.buffers_created();
            assert_eq!(engine.serve(requests).unwrap(), reference, "{label}");
            assert_eq!(
                engine.buffers_created(),
                minted,
                "steady state minted buffers: {label}"
            );
            let stats = engine.stats();
            let run_batches = (2 * requests[0].inputs.len()).div_ceil(routers * neurons) as u64;
            assert_eq!(stats.batches, 2 * 2 * run_batches, "{label}");
            assert!(stats.jobs > 0 && stats.jobs <= stats.batches, "{label}");
            assert_eq!(
                stats.jobs,
                2 * 2 * run_batches.div_ceil(k as u64),
                "each run packs into ⌈batches / K⌉ units: {label}"
            );
        }
    }
}

/// A census whose only non-linear traffic is `queries` lookups.
fn census_of(queries: usize) -> OpCensus {
    OpCensus {
        gelu_elements: queries as u64,
        ..OpCensus::default()
    }
}

/// Serves `requests` on a fresh `.host(cmos22, tpu_v4_like)` engine with
/// `tables` registered in order, returning `(batches, switches, switch
/// cycles, makespan)` from its ledger.
fn engine_ledger(
    kind: ApproximatorKind,
    workers: usize,
    tables: &[TableKey],
    requests: &[ServingRequest],
) -> (u64, u64, u64, u64) {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    let mut engine = ServingEngine::builder(kind)
        .host(&tech, &host)
        .tables(tables.iter().copied())
        .shards(workers)
        .build()
        .unwrap();
    assert_eq!(
        engine.serve(requests).unwrap(),
        engine.serve_reference(requests)
    );
    let stats = engine.stats();
    (
        stats.batches,
        stats.table_switches,
        stats.switch_cycles,
        engine.makespan_cycles(),
    )
}

/// Seeded words in the paper tables' domain.
fn words(rng: &mut StdRng, n: usize) -> Vec<Fixed> {
    (0..n)
        .map(|_| Fixed::from_f64(rng.gen_range(-6.0..6.0), Q4_12, Rounding::NearestEven))
        .collect()
}

/// The analytic twins are folds over the engine's own schedule, so they
/// agree with it *exactly*: for seeded mixed-activation slates and
/// ragged fused-row slates (empty rows included) × every approximator
/// kind × workers {1, 2, 4}, on TPU-v4-like engines whose tables are
/// registered in slate first-appearance order, the twin's batches,
/// table switches, switch cycles and makespan equal the engine's
/// ledger. The fixed cases are the slates on which a batch-round-robin
/// twin undercounted the makespan of the unit-round-robin engine.
#[test]
fn analytic_twins_equal_the_engine_exactly() {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    let capacity = host.total_neurons();
    let mut rng = StdRng::seed_from_u64(0x7317);
    let palette = [
        Activation::Gelu,
        Activation::Exp,
        Activation::Sigmoid,
        Activation::Tanh,
    ];
    // Mixed-activation slates: `(activation, queries)` per request. The
    // first is the 8-request GELU/exp slate of 17- and 15-batch runs.
    let mut mixed: Vec<Vec<(Activation, usize)>> = vec![(0..8)
        .map(|i| {
            if i % 2 == 0 {
                (Activation::Gelu, 4300)
            } else {
                (Activation::Exp, 3700)
            }
        })
        .collect()];
    for _ in 0..5 {
        let n = rng.gen_range(1usize..9);
        mixed.push(
            (0..n)
                .map(|_| {
                    let a = palette[rng.gen_range(0..palette.len())];
                    let q = if rng.gen_range(0usize..6) == 0 {
                        0
                    } else {
                        rng.gen_range(1usize..6000)
                    };
                    (a, q)
                })
                .collect(),
        );
    }
    for slate in &mixed {
        let mut tables: Vec<TableKey> = Vec::new();
        let mut census = Vec::new();
        let mut requests = Vec::new();
        for (stream, &(activation, queries)) in slate.iter().enumerate() {
            let key = TableKey::paper(activation);
            if !tables.contains(&key) {
                tables.push(key);
            }
            census.push((activation, census_of(queries)));
            requests.push(ServingRequest::new(stream, key, words(&mut rng, queries)));
        }
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                let twin = evaluate_multi_stream(&tech, &host, &census, kind, workers).unwrap();
                let label = format!("{} w={workers} {slate:?}", kind.label());
                assert_eq!(
                    (
                        twin.coalesced_batches,
                        twin.table_switches,
                        twin.switch_cycles,
                        twin.makespan_nl_cycles
                    ),
                    engine_ledger(kind, workers, &tables, &requests),
                    "{label}"
                );
            }
        }
    }
    // Fused-row slates: the first is ten 1000-lane rows; the others are
    // ragged up to the full batch width, with empty rows mixed in.
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    let mut fused: Vec<Vec<usize>> = vec![vec![1000; 10]];
    for _ in 0..4 {
        let n = rng.gen_range(1usize..16);
        let mut rows: Vec<usize> = (0..n)
            .map(|_| match rng.gen_range(0usize..5) {
                0 => 0,
                1 => capacity,
                _ => rng.gen_range(1..capacity),
            })
            .collect();
        rows.push(rng.gen_range(1..capacity));
        fused.push(rows);
    }
    let tables: Vec<TableKey> = softmax.table_keys().collect();
    for rows in &fused {
        let requests: Vec<ServingRequest> = rows
            .iter()
            .enumerate()
            .map(|(stream, &w)| ServingRequest::new(stream, softmax.clone(), words(&mut rng, w)))
            .collect();
        let widths: Vec<u64> = rows.iter().map(|&w| w as u64).collect();
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                let twin = evaluate_fused_softmax(&host, &widths, kind, workers).unwrap();
                let label = format!("{} w={workers} fused {rows:?}", kind.label());
                assert_eq!(
                    (
                        twin.batches,
                        twin.table_switches,
                        twin.switch_cycles,
                        twin.makespan_nl_cycles
                    ),
                    engine_ledger(kind, workers, &tables, &requests),
                    "{label}"
                );
            }
        }
    }
}

/// Empty requests pack nothing in the engine, so the twin neither counts
/// them as an activation run nor as a switch boundary — in the pooled
/// fold, the naive baseline or `nl_speedup`'s serial run transitions.
#[test]
fn twin_skips_empty_requests_like_the_engine() {
    let tech = TechModel::cmos22();
    let host = AcceleratorConfig::tpu_v4_like();
    let mut rng = StdRng::seed_from_u64(0xE4);
    let slate = [
        (Activation::Gelu, 3000usize),
        (Activation::Sigmoid, 0),
        (Activation::Exp, 2000),
    ];
    let census: Vec<(Activation, OpCensus)> =
        slate.iter().map(|&(a, q)| (a, census_of(q))).collect();
    let tables: Vec<TableKey> = slate.iter().map(|&(a, _)| TableKey::paper(a)).collect();
    let requests: Vec<ServingRequest> = slate
        .iter()
        .enumerate()
        .map(|(s, &(a, q))| ServingRequest::new(s, TableKey::paper(a), words(&mut rng, q)))
        .collect();
    let kind = ApproximatorKind::PerCoreLut;
    let twin = evaluate_multi_stream(&tech, &host, &census, kind, 1).unwrap();
    assert_eq!(twin.activations, 2);
    assert_eq!(twin.naive_table_switches, 1);
    let (_, switches, _, _) = engine_ledger(kind, 1, &tables, &requests);
    assert_eq!(twin.table_switches, switches);
    // One GELU → exp transition on each side of the speedup ratio.
    let stall = twin.switch_cycles;
    assert_eq!(
        twin.nl_speedup,
        twin.naive_nl_cycles as f64 / (twin.nl_cycles + stall) as f64
    );
}

/// Op-graph plans are functionally invisible too: for every approximator
/// kind × worker count {1, 2, 4} × seeded ragged slate — fused softmax
/// rows (including empty and full-batch-width ones) interleaved with
/// single-lookup tenants — the worker pool serves bit-identically to
/// the sequential op-graph interpreter, steady-state repeats mint no
/// buffers, and every non-empty fused row comes back normalized.
#[test]
fn fused_plans_bit_identical_across_workers_kinds_and_ragged_slates() {
    let mut rng = StdRng::seed_from_u64(0xF5ED);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    // 2×5 grid (capacity 10): fused rows up to the full batch width, so
    // row-aligned packing keeps sealing genuinely partial batches.
    let (routers, neurons) = (2usize, 5usize);
    let capacity = routers * neurons;
    for round in 0..3 {
        let requests: Vec<ServingRequest> = (0..9)
            .map(|stream| {
                let fused = stream % 3 != 0;
                let width = if fused {
                    rng.gen_range(0usize..capacity + 1)
                } else {
                    rng.gen_range(1usize..24)
                };
                let inputs: Vec<Fixed> = (0..width)
                    .map(|_| {
                        Fixed::from_f64(rng.gen_range(-6.0..6.0), Q4_12, Rounding::NearestEven)
                    })
                    .collect();
                if fused {
                    ServingRequest::new(stream, softmax.clone(), inputs)
                } else {
                    ServingRequest::new(stream, gelu, inputs)
                }
            })
            .collect();
        for kind in ApproximatorKind::all() {
            for workers in [1usize, 2, 4] {
                let mut engine = ServingEngine::builder(kind)
                    .line(LineConfig::paper_default(routers, neurons))
                    .cache(&cache)
                    .table(gelu)
                    .plan(&softmax)
                    .shards(workers)
                    .build()
                    .unwrap();
                let label = format!("{} w={workers} round={round}", kind.label());
                let reference = engine.serve_reference(&requests);
                assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
                let minted = engine.buffers_created();
                assert_eq!(engine.serve(&requests).unwrap(), reference, "{label}");
                assert_eq!(
                    engine.buffers_created(),
                    minted,
                    "steady state minted buffers: {label}"
                );
                for (request, out) in requests.iter().zip(&reference) {
                    if request.plan.single_lookup().is_none() && !out.is_empty() {
                        let sum: f64 = out.iter().map(|y| y.to_f64()).sum();
                        assert!((sum - 1.0).abs() < 0.1, "{label}: fused row sums to {sum}");
                    }
                }
            }
        }
    }
}

/// Request lengths around the 1,024-slot paper batch: empty, single,
/// one short of, exactly, one past, two past and nearly three batches.
const STRADDLE_LENGTHS: [usize; 7] = [0, 1, 1023, 1024, 1025, 2049, 3000];

/// Segment scatter is functionally invisible: on the 8×128 paper grid
/// (capacity 1,024), slates whose requests straddle batch and unit
/// boundaries — every `STRADDLE_LENGTHS` length, alternating GELU and
/// exp, in two orders — plus a slate of ragged fused-softmax rows
/// interleaved with straddling lookups serve bit-identically to the
/// sequential reference for every approximator kind × workers
/// {1, 2, 4}, and every grid slot of every batch is a query or padding.
#[test]
fn segment_scatter_bit_identical_across_straddling_slates() {
    let mut rng = StdRng::seed_from_u64(0x5E65);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let exp = TableKey::paper(Activation::Exp);
    let softmax = Plan::fused_softmax(Q4_12, Rounding::NearestEven);
    let lookup_slate = |rng: &mut StdRng, lengths: &mut dyn Iterator<Item = usize>| {
        lengths
            .enumerate()
            .map(|(i, n)| {
                ServingRequest::new(i, if i % 2 == 0 { gelu } else { exp }, words(rng, n))
            })
            .collect::<Vec<_>>()
    };
    let forward = lookup_slate(&mut rng, &mut STRADDLE_LENGTHS.into_iter());
    let backward = lookup_slate(&mut rng, &mut STRADDLE_LENGTHS.into_iter().rev());
    // Fused rows of ragged widths up to the full batch, between lookups
    // that split across batches on either side of them.
    let fused: Vec<ServingRequest> = [1025, 0, 700, 1, 2049, 1024, 333, 1023, 3000, 5]
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            if i % 2 == 0 {
                ServingRequest::new(i, if i % 4 == 0 { gelu } else { exp }, words(&mut rng, n))
            } else {
                ServingRequest::new(i, softmax.clone(), words(&mut rng, n))
            }
        })
        .collect();
    for kind in ApproximatorKind::all() {
        for workers in [1usize, 2, 4] {
            let mut engine = ServingEngine::builder(kind)
                .line(LineConfig::paper_default(8, 128))
                .cache(&cache)
                .tables([gelu, exp])
                .plan(&softmax)
                .shards(workers)
                .build()
                .unwrap();
            for (name, slate) in [
                ("forward", &forward),
                ("backward", &backward),
                ("fused", &fused),
            ] {
                let label = format!("{} w={workers} {name}", kind.label());
                let reference = engine.serve_reference(slate);
                assert_eq!(engine.serve(slate).unwrap(), reference, "{label}");
            }
            let stats = engine.stats();
            assert_eq!(
                stats.padded_slots + stats.queries,
                stats.batches * engine.capacity() as u64,
                "{} w={workers}: every slot is a query or padding",
                kind.label()
            );
        }
    }
}

/// A shard fault mid-way through a split request: shard 0 of two
/// flips a bit in its second lookup batch — the batch holding the tail
/// of a 1,025-query request and the head of a 3,000-query one, after
/// the first batch's segment was already scattered. The canary trips,
/// the unit is requeued whole to the survivor, and its re-scatter
/// leaves the output bit-identical to the reference for every kind.
#[test]
fn requeued_split_request_rescatters_identically() {
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let cache = TableCache::new();
    let gelu = TableKey::paper(Activation::Gelu);
    let slate: Vec<ServingRequest> = [1025, 3000, 2049]
        .into_iter()
        .enumerate()
        .map(|(i, n)| ServingRequest::new(i, gelu, words(&mut rng, n)))
        .collect();
    for kind in ApproximatorKind::all() {
        let mut engine = ServingEngine::builder(kind)
            .line(LineConfig::paper_default(8, 128))
            .cache(&cache)
            .table(gelu)
            .shards(2)
            .fault_check(FaultPolicy::new().inject(0, FaultInjector::bit_flip(1, 7)))
            .build()
            .unwrap();
        let reference = engine.serve_reference(&slate);
        assert_eq!(engine.serve(&slate).unwrap(), reference, "{}", kind.label());
        let stats = engine.stats();
        assert_eq!(stats.quarantined_shards, 1, "{}: {stats:?}", kind.label());
        assert!(stats.requeued_units >= 1, "{}: {stats:?}", kind.label());
    }
}

/// The mapper's clock multiplier is exactly ⌈segments/8⌉ on the paper
/// link, and the plan's reach shrinks monotonically with core clock.
#[test]
fn mapper_multiplier_formula() {
    let mut rng = StdRng::seed_from_u64(0xD002);
    for _ in 0..24 {
        let segments = rng.gen_range(1usize..17);
        let core_mhz = rng.gen_range(100.0..2000.0);
        let tech = TechModel::cmos22();
        let plan = Mapper::paper_default()
            .with_segments(segments)
            .compile(&[Activation::Tanh], &tech, 4, core_mhz / 1000.0, 1.0)
            .unwrap();
        assert_eq!(plan.noc_clock_multiplier, segments.div_ceil(8).max(1));
        let slower = Mapper::paper_default()
            .with_segments(segments)
            .compile(&[Activation::Tanh], &tech, 4, core_mhz / 2000.0, 1.0)
            .unwrap();
        assert!(slower.reach >= plan.reach);
    }
}

/// Approximation accuracy through the full mapper pipeline improves
/// (weakly) with the segment budget for every activation.
#[test]
fn mapper_accuracy_monotone() {
    for a in ACTIVATIONS {
        let tech = TechModel::cmos22();
        let err = |segments: usize| {
            let plan = Mapper::paper_default()
                .with_segments(segments)
                .compile(&[a], &tech, 1, 1.0, 1.0)
                .unwrap();
            let table = &plan.mappings[0].table;
            let (lo, hi) = a.domain();
            (0..200)
                .map(|k| lo + (hi - lo) * k as f64 / 199.0)
                .map(|x| (table.eval_f64(x) - a.eval(x)).abs())
                .fold(0.0f64, f64::max)
        };
        // Allow a little fixed-point noise between adjacent budgets.
        assert!(err(16) <= err(4) + 0.01, "{a:?}");
    }
}
