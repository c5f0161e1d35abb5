//! The serving benchmark: drives `nova::serving::ServingEngine` through
//! its public session API on one of three workloads, checks every
//! returned ticket, and prints its metrics with their units.
//!
//! ```text
//! servebench --workload <lookup-bulk|lookup-open|fused-attention>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, from an untraced run; with
//! `--trace 1` they are the per-layer ones, from a second, traced run
//! of the workload followed by per-layer replays. The lines before it
//! carry the host and noise block and the diagnostics. See `README.md`
//! in this directory for every metric and why it was chosen.

mod host;
mod layers;
mod phases;
mod stats;
mod trace;
mod traffic;

use std::path::PathBuf;
use std::process::ExitCode;

use nova::engine::ApproximatorKind;
use nova::serving::{ServingEngine, TableCache};
use nova_serde::Value;

use phases::{Outputs, Phase};
use stats::{median, percentile_sorted, quartiles};
use trace::{Clock, Tracer};
use traffic::{open_schedule, Workload, NEURONS, OPEN_RATE_HZ, ROUTERS};

const USAGE: &str =
    "usage: servebench --workload <lookup-bulk|lookup-open|fused-attention> --seed <n> --seconds <s> --trace <0|1>";

/// Cold starts per burst, after one discarded start. A run takes one
/// burst before the timed phase and one after it, and `setup_s` is the
/// median of both: the host's speed drifts over seconds, and two bursts
/// half a minute apart sample two moments of it rather than one.
const SETUP_BUILDS: usize = 201;
/// Untimed serving before the measured phase, so buffers, caches and
/// the worker's wake-up path are warm.
const WARMUP_NS: u64 = 500_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Every checked ticket of the run, set-up and warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn add_phase(&mut self, phase: &Phase) {
        self.add(phase.attempted, phase.failed());
    }
}

/// FNV-1a over every output word's raw bytes, in request order: the
/// repository's pinned-checksum digest.
fn fnv1a(outputs: &Outputs) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in outputs.iter().flatten().flat_map(|y| y.raw().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The workload's inputs and reference outputs, computed before any
/// timing.
struct Bench {
    args: Args,
    clock: Clock,
    slates: Vec<Vec<nova::serving::ServingRequest>>,
    references: Vec<Outputs>,
    tally: Tally,
}

impl Bench {
    fn new(args: Args) -> Result<Self, String> {
        let clock = Clock::start();
        let slates = args.workload.slates(args.seed);
        let engine = args
            .workload
            .build_engine(&TableCache::new())
            .map_err(|e| format!("build: {e}"))?;
        let references: Vec<Outputs> = slates.iter().map(|s| engine.serve_reference(s)).collect();
        if args.seed == 0 {
            if let Some(pinned) = args.workload.pinned_checksum() {
                let got = fnv1a(&references[0]);
                if got != pinned {
                    return Err(format!(
                        "seed-0 reference checksum {got:#018x} != pinned {pinned:#018x}"
                    ));
                }
            }
        }
        Ok(Self {
            args,
            clock,
            slates,
            references,
            tally: Tally::default(),
        })
    }

    /// One burst of [`SETUP_BUILDS`] cold starts after a discarded one:
    /// the time to first result of each correct start.
    fn cold_starts(&mut self, mut tracer: Option<&mut Tracer>) -> Result<Vec<f64>, String> {
        let mut samples = Vec::with_capacity(SETUP_BUILDS);
        for i in 0..=SETUP_BUILDS {
            let sample = phases::cold_start(
                self.args.workload,
                &self.slates[0],
                &self.references[0],
                self.clock,
                tracer.as_deref_mut(),
            )?;
            self.tally.add(1, u64::from(sample.is_none()));
            if i > 0 {
                samples.extend(sample.map(|ns| ns as f64));
            }
        }
        Ok(samples)
    }

    /// One phase of the workload on `engine` lasting `duration_ns`.
    fn phase(
        &mut self,
        engine: &mut ServingEngine,
        duration_ns: u64,
        schedule_seed: u64,
        tracer: Option<&mut Tracer>,
    ) -> Phase {
        let workload = self.args.workload;
        let phase = match workload {
            Workload::LookupOpen => {
                let schedule = open_schedule(schedule_seed, OPEN_RATE_HZ, duration_ns);
                phases::open_loop(
                    engine,
                    &self.slates,
                    &self.references,
                    schedule,
                    self.clock,
                    self.args.trace,
                    tracer,
                )
            }
            Workload::LookupBulk | Workload::FusedAttention => phases::closed_loop(
                engine,
                &self.slates[0],
                &self.references[0],
                self.clock,
                duration_ns,
                self.args.trace,
                tracer,
            ),
        };
        self.tally.add_phase(&phase);
        phase
    }
}

/// The end-to-end figures of one phase.
struct EndToEnd {
    throughput_qps: f64,
    latency_p50_ms: f64,
    slo_frac: f64,
}

fn end_to_end(phase: &Phase) -> EndToEnd {
    if phase.windows.is_empty() {
        // Open loop: completions over the phase, the median over every
        // request, and the share of attempted requests within the limit.
        return EndToEnd {
            throughput_qps: phase.queries as f64 * 1e9 / phase.elapsed_ns.max(1) as f64,
            latency_p50_ms: latency_ms(phase, 50.0),
            slo_frac: frac(phase.within_slo, phase.attempted),
        };
    }
    // Closed loops: medians over windows, and the share of calls that
    // were steady against their own window's median.
    let rates: Vec<f64> = phase.windows.iter().map(|w| w.rate).collect();
    let medians: Vec<f64> = phase
        .windows
        .iter()
        .map(|w| w.median_ns)
        .filter(|ns| !ns.is_nan())
        .collect();
    let steady = phase.windows.iter().map(|w| w.steady).sum();
    let calls = phase.windows.iter().map(|w| w.calls).sum();
    EndToEnd {
        throughput_qps: median(&rates),
        latency_p50_ms: if medians.is_empty() {
            f64::NAN
        } else {
            median(&medians) / 1e6
        },
        slo_frac: frac(steady, calls),
    }
}

fn latency_ms(phase: &Phase, p: f64) -> f64 {
    let mut sorted = phase.latencies_ns.clone();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return f64::NAN;
    }
    percentile_sorted(&sorted, p) as f64 / 1e6
}

fn frac(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The phase's diagnostics: sample counts, spreads and tails.
fn diagnostics(label: &str, phase: &Phase) -> Value {
    let rates: Vec<f64> = phase.windows.iter().map(|w| w.rate).collect();
    let quart = |v: &[f64]| -> Value {
        if v.is_empty() {
            Value::Null
        } else {
            Value::Seq(quartiles(v).iter().map(|&q| Value::F64(q)).collect())
        }
    };
    let n = phase.latencies_ns.len();
    Value::Map(vec![
        ("phase".into(), Value::Str(label.into())),
        ("tickets".into(), Value::U64(phase.attempted)),
        ("ok".into(), Value::U64(phase.ok)),
        ("latency_samples".into(), Value::U64(n as u64)),
        ("latency_p99_ms".into(), Value::F64(latency_ms(phase, 99.0))),
        ("beyond_p99".into(), Value::U64((n / 100) as u64)),
        (
            "latency_p999_ms".into(),
            Value::F64(latency_ms(phase, 99.9)),
        ),
        ("beyond_p999".into(), Value::U64((n / 1000) as u64)),
        ("windows".into(), Value::U64(rates.len() as u64)),
        ("window_qps_quartiles".into(), quart(&rates)),
        (
            "steal_frac".into(),
            phase.steal_frac.map_or(Value::Null, Value::F64),
        ),
    ])
}

fn host_block(args: &Args) -> Value {
    Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::U64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        (
            "cpu_model".into(),
            host::cpu_model().map_or(Value::Null, Value::Str),
        ),
        ("rustc".into(), Value::Str(host::RUSTC.into())),
        ("profile".into(), Value::Str(host::PROFILE.into())),
        ("kind".into(), Value::Str(format!("{:?}", traffic::KIND))),
        ("shards".into(), Value::U64(1)),
    ])
}

fn run(args: Args) -> Result<(Tally, Vec<Metric>), String> {
    let trace = args.trace;
    // A traced run splits its time between the untraced and the traced
    // phase.
    let phase_ns = args.seconds * 1_000_000_000 / if trace { 2 } else { 1 };
    println!(
        "{}",
        Value::Map(vec![("host".into(), host_block(&args))]).to_json()
    );
    let mut bench = Bench::new(args)?;
    let workload = bench.args.workload;
    let seed = bench.args.seed;

    let _awake = host::KeepAwake::start();
    let mut tracer = trace.then(|| Tracer::with_capacity(1 << 20));
    let mut setup_samples = bench.cold_starts(tracer.as_mut())?;

    let cache = TableCache::new();
    let mut engine = workload
        .build_engine(&cache)
        .map_err(|e| format!("build: {e}"))?;
    // The warm-up's open-loop schedule comes from a seed no measured
    // phase uses.
    bench.phase(&mut engine, WARMUP_NS, seed ^ (1 << 63), None);
    let untraced = bench.phase(&mut engine, phase_ns, seed, None);
    println!(
        "{}",
        Value::Map(vec![(
            "diagnostics".into(),
            diagnostics("untraced", &untraced)
        )])
        .to_json()
    );
    let e2e = end_to_end(&untraced);
    // After the steady state: the untraced phase keeps no per-call
    // record, so its own bookkeeping does not grow with the host's speed.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    setup_samples.extend(bench.cold_starts(tracer.as_mut())?);
    let setup_ns = if setup_samples.is_empty() {
        f64::NAN
    } else {
        let [q1, q2, q3] = quartiles(&setup_samples);
        let quarts = [q1, q2, q3].map(|q| Value::F64(q / 1e9)).to_vec();
        let block = Value::Map(vec![
            ("cold_starts".into(), Value::U64(setup_samples.len() as u64)),
            ("quartiles_s".into(), Value::Seq(quarts)),
        ]);
        println!("{}", Value::Map(vec![("setup".into(), block)]).to_json());
        q2
    };

    let metrics = if let Some(tracer) = tracer.as_mut() {
        let traced = bench.phase(&mut engine, phase_ns, seed, Some(&mut *tracer));
        println!(
            "{}",
            Value::Map(vec![("diagnostics".into(), diagnostics("traced", &traced))]).to_json()
        );
        let metrics = per_layer(&bench, &untraced, &traced, tracer, &e2e, &cache)?;
        let path = trace_path(workload, seed);
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "servebench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => return Err(format!("writing spans to {}: {e}", path.display())),
        }
        metrics
    } else {
        let queries = untraced.after.stats.queries - untraced.before.stats.queries;
        let cycles = untraced.after.makespan_cycles - untraced.before.makespan_cycles;
        vec![
            metric("setup_s", setup_ns / 1e9, "s"),
            metric("throughput_qps", e2e.throughput_qps, "query/s"),
            metric("latency_p50_ms", e2e.latency_p50_ms, "ms"),
            metric("slo_frac", e2e.slo_frac, "frac"),
            metric("ok_frac", frac(untraced.ok, untraced.attempted), "frac"),
            metric(
                "sim_cycles_per_kquery",
                cycles as f64 * 1e3 / queries.max(1) as f64,
                "cycles/kquery",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    Ok((bench.tally, metrics))
}

/// Where the traced run's spans go: beside the benchmark binary, in
/// the build directory.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("traces")))
        .unwrap_or_else(|| PathBuf::from("traces"));
    // A failure here surfaces when the file is created.
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{}-seed{seed}.jsonl", workload.name()))
}

/// The traced run's per-layer metrics.
fn per_layer(
    bench: &Bench,
    untraced: &Phase,
    traced: &Phase,
    tracer: &Tracer,
    e2e: &EndToEnd,
    cache: &TableCache,
) -> Result<Vec<Metric>, String> {
    let workload = bench.args.workload;
    let (before, after) = (traced.before, traced.after);
    let queries = (after.stats.queries - before.stats.queries).max(1) as f64;
    let tickets = traced.attempted.max(1) as f64;
    let admit = (after.stage.admit_ns - before.stage.admit_ns) as f64;
    let busy = (after.stage.worker_busy_ns - before.stage.worker_busy_ns) as f64;
    let busy_max = (after.stage.worker_busy_max_ns - before.stage.worker_busy_max_ns) as f64;
    let finalize = (after.stage.finalize_ns - before.stage.finalize_ns) as f64;
    let batches = (after.stats.batches - before.stats.batches).max(1) as f64;
    let jobs = (after.stats.jobs - before.stats.jobs).max(1) as f64;
    let switches = (after.stats.table_switches - before.stats.table_switches) as f64;
    let switch_cycles = (after.stats.switch_cycles - before.stats.switch_cycles) as f64;
    let collect_span = if traced.windows.is_empty() {
        "try_poll"
    } else {
        "wait"
    };
    let mut late = traced.late_ns.clone();
    late.sort_unstable();
    let fits: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "get_or_fit")
        .map(|s| s.ns() as f64)
        .collect();
    let traced_e2e = end_to_end(traced);

    let mut m = vec![
        metric(
            "serving.submit_ns_per_query",
            tracer.total_ns("submit") as f64 / queries,
            "ns/query",
        ),
        metric(
            "serving.wait_ns_per_query",
            tracer.total_ns(collect_span) as f64 / queries,
            "ns/query",
        ),
        metric("serving.admit_ns_per_query", admit / queries, "ns/query"),
        metric(
            "serving.worker_busy_ns_per_query",
            busy / queries,
            "ns/query",
        ),
        metric(
            "serving.finalize_ns_per_ticket",
            finalize / tickets,
            "ns/ticket",
        ),
        metric(
            "serving.unexplained_frac",
            1.0 - (admit + busy_max + finalize) / traced.engine_ns.max(1) as f64,
            "frac",
        ),
        metric(
            "serving.occupancy_frac",
            queries / (batches * (ROUTERS * NEURONS) as f64),
            "frac",
        ),
        metric("serving.queries_per_unit", queries / jobs, "query/unit"),
        metric(
            "serving.switches_per_kquery",
            switches * 1e3 / queries,
            "count/kquery",
        ),
        metric(
            "serving.switch_cycles_per_kquery",
            switch_cycles * 1e3 / queries,
            "cycles/kquery",
        ),
        metric(
            "serving.buffers_created_delta",
            (after.buffers_created - before.buffers_created) as f64,
            "count",
        ),
        metric(
            "serving.in_flight_max",
            traced.in_flight_max as f64,
            "count",
        ),
        metric(
            "serving.gen_late_p99_us",
            if late.is_empty() {
                f64::NAN
            } else {
                percentile_sorted(&late, 99.0) as f64 / 1e3
            },
            "us",
        ),
        metric("serving.latency_p99_ms", latency_ms(untraced, 99.0), "ms"),
        metric("serving.latency_p999_ms", latency_ms(untraced, 99.9), "ms"),
        metric(
            "approx.fit_ns_per_table",
            if fits.is_empty() {
                f64::NAN
            } else {
                median(&fits)
            },
            "ns",
        ),
        metric(
            "trace.overhead_throughput_qps",
            traced_e2e.throughput_qps - e2e.throughput_qps,
            "query/s",
        ),
        metric(
            "trace.overhead_latency_p50_ms",
            traced_e2e.latency_p50_ms - e2e.latency_p50_ms,
            "ms",
        ),
    ];

    let (snapshot_ns, restore_ns) = layers::snapshot_restore_ns(&workload.tables())?;
    m.push(metric("serving.snapshot_ns", snapshot_ns, "ns"));
    m.push(metric("serving.restore_ns", restore_ns, "ns"));

    let replay = layers::Replay::capture(workload, &bench.slates, cache)?;
    for kind in ApproximatorKind::all() {
        let slug = layers::kind_slug(kind);
        m.push(metric(
            format!("vector_unit.lookup_ns_per_batch.{slug}"),
            layers::lookup_ns_per_batch(&replay, kind)?,
            "ns/batch",
        ));
        m.push(metric(
            format!("vector_unit.switch_ns.{slug}"),
            layers::switch_ns(&replay, kind)?,
            "ns",
        ));
    }
    let (run_flat_ns, schedule_ns) = layers::noc(&replay)?;
    m.push(metric("noc.run_flat_ns_per_query", run_flat_ns, "ns/query"));
    m.push(metric("noc.schedule_build_ns", schedule_ns, "ns"));
    m.push(metric(
        "approx.eval_ns_per_query",
        layers::approx_eval_ns(&replay),
        "ns/query",
    ));
    m.push(metric("spsc.hop_ns", layers::spsc_hop_ns(), "ns"));
    let (switch_delta, cycle_delta) = layers::fused_twin_delta(bench.args.seed)?;
    m.push(metric(
        "engine.fused_switch_delta",
        switch_delta as f64,
        "count",
    ));
    m.push(metric(
        "engine.fused_cycle_delta",
        cycle_delta as f64,
        "cycles",
    ));
    Ok(m)
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = Value::Map(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), body)
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok((tally, metrics)) => {
            let finite = metrics.iter().all(|m| m.value.is_finite());
            let correct = tally.failed == 0 && finite;
            println!("{}", result_line(correct, &tally, &metrics));
            if correct {
                return ExitCode::SUCCESS;
            }
            if tally.failed > 0 {
                eprintln!(
                    "servebench: {} of {} tickets failed or returned wrong output",
                    tally.failed, tally.attempted
                );
            }
            if !finite && tally.failed == 0 {
                eprintln!("servebench: a metric could not be measured on this host");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
