//! The measured phases: repeated cold starts, the closed loop and the
//! open loop. Each drives `ServingEngine` only through its public
//! session API and checks every returned ticket against the reference
//! outputs computed before timing began.

use std::collections::VecDeque;
use std::thread;

use nova::serving::{ServingEngine, ServingRequest, ServingStats, StageTimes, TableCache, Ticket};
use nova_fixed::Fixed;

use crate::host::CpuTimes;
use crate::stats::{Window, Windows};
use crate::trace::{Clock, Span, SpanId, Tracer};
use crate::traffic::{OpenSchedule, Workload, OPEN_MAX_IN_FLIGHT, OPEN_SLO_NS};

pub type Outputs = Vec<Vec<Fixed>>;

/// What the engine's own ledger says, read through its public
/// accessors at a phase boundary.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    pub stats: ServingStats,
    pub stage: StageTimes,
    pub buffers_created: u64,
    pub makespan_cycles: u64,
}

impl Ledger {
    pub fn of(engine: &ServingEngine) -> Self {
        Self {
            stats: engine.stats(),
            stage: engine.stage_times(),
            buffers_created: engine.buffers_created(),
            makespan_cycles: engine.makespan_cycles(),
        }
    }
}

/// One measured phase.
#[derive(Debug)]
pub struct Phase {
    /// Tickets submitted (closed loops: serve calls).
    pub attempted: u64,
    /// Tickets that returned `Ok` with reference-identical output.
    pub ok: u64,
    /// Queries in those tickets.
    pub queries: u64,
    /// Per-ticket latency of the `ok` tickets: closed loops time the
    /// call, the open loop counts from the intended arrival. Closed
    /// loops keep these only when asked to (see [`closed_loop`]).
    pub latencies_ns: Vec<u64>,
    /// Open loop: `ok` tickets within [`crate::traffic::OPEN_SLO_NS`].
    pub within_slo: u64,
    /// Closed loops: the per-window figures.
    pub windows: Vec<Window>,
    /// How late each request was issued against when it was due: the
    /// intended arrival (open loop) or the previous call's return
    /// (closed loop). Kept only when the phase keeps samples.
    pub late_ns: Vec<u64>,
    /// Largest `in_flight()` seen right after a submit.
    pub in_flight_max: usize,
    /// Σ over tickets of submit start → collected.
    pub engine_ns: u64,
    /// Wall time from the phase start to the last completion.
    pub elapsed_ns: u64,
    pub before: Ledger,
    pub after: Ledger,
    /// Share of host CPU time stolen by the hypervisor during the phase.
    pub steal_frac: Option<f64>,
}

impl Phase {
    fn begin(engine: &ServingEngine) -> (Self, Option<CpuTimes>) {
        let ledger = Ledger::of(engine);
        let phase = Self {
            attempted: 0,
            ok: 0,
            queries: 0,
            latencies_ns: Vec::new(),
            within_slo: 0,
            windows: Vec::new(),
            late_ns: Vec::new(),
            in_flight_max: 0,
            engine_ns: 0,
            elapsed_ns: 0,
            before: ledger,
            after: ledger,
            steal_frac: None,
        };
        (phase, CpuTimes::read())
    }

    fn end(&mut self, engine: &ServingEngine, cpu: Option<CpuTimes>, elapsed_ns: u64) {
        self.after = Ledger::of(engine);
        self.elapsed_ns = elapsed_ns;
        self.steal_frac = cpu
            .zip(CpuTimes::read())
            .and_then(|(a, b)| a.steal_frac_until(b));
    }

    /// Checks one collected ticket and books it. Returns the queries it
    /// completed, or `None` when it failed or returned wrong output.
    fn collect(
        &mut self,
        result: Result<Outputs, nova::NovaError>,
        reference: &Outputs,
        latency_ns: u64,
        keep_latency: bool,
    ) -> Option<u64> {
        if !matches!(&result, Ok(out) if out == reference) {
            return None;
        }
        let queries = reference.iter().map(|r| r.len() as u64).sum::<u64>();
        self.ok += 1;
        self.queries += queries;
        if keep_latency {
            self.latencies_ns.push(latency_ns);
        }
        Some(queries)
    }

    /// Tickets that failed or returned wrong output.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// One cold start: a fresh `TableCache`, `get_or_fit` for every
/// resident table, `EngineBuilder::build`, and one served slate. Returns
/// the time to the first result, or `None` when the result was wrong.
/// The engine's drop (which joins its worker) is not timed.
pub fn cold_start(
    workload: Workload,
    slate: &[ServingRequest],
    reference: &Outputs,
    clock: Clock,
    mut tracer: Option<&mut Tracer>,
) -> Result<Option<u64>, String> {
    let start = clock.now_ns();
    let root = tracer.as_mut().map(|t| t.open("setup", 0, start));
    let child = |tracer: &mut Option<&mut Tracer>, name: &'static str, start_ns: u64| {
        if let Some(t) = tracer.as_mut() {
            t.record(Span {
                name,
                parent: root,
                ticket: 0,
                start_ns,
                end_ns: clock.now_ns(),
                calls: 1,
            });
        }
    };
    let cache = TableCache::new();
    for key in workload.tables() {
        let t0 = clock.now_ns();
        cache
            .get_or_fit(key)
            .map_err(|e| format!("fit {key:?}: {e}"))?;
        child(&mut tracer, "get_or_fit", t0);
    }
    let t0 = clock.now_ns();
    let mut engine = workload
        .build_engine(&cache)
        .map_err(|e| format!("build: {e}"))?;
    child(&mut tracer, "build", t0);
    let t0 = clock.now_ns();
    let out = engine.serve(slate);
    child(&mut tracer, "serve", t0);
    let end = clock.now_ns();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root, end);
    }
    Ok(matches!(&out, Ok(out) if out == reference).then_some(end - start))
}

/// Closed-loop windows of wall time: a few hundred calls each.
pub const WINDOW_NS: u64 = 100_000_000;

/// The closed loop: one client serving `slate` back to back for
/// `duration_ns`. Untraced calls go through `serve`; traced calls make
/// the same two calls `serve` makes (`submit`, then `wait`) so each
/// gets its own span. With `keep_samples` it also keeps every call's
/// latency and issue delay, for the tail figures; without, it stores
/// only per-window figures, so the memory it adds does not depend on
/// how many calls the host managed.
pub fn closed_loop(
    engine: &mut ServingEngine,
    slate: &[ServingRequest],
    reference: &Outputs,
    clock: Clock,
    duration_ns: u64,
    keep_samples: bool,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let (mut phase, cpu) = Phase::begin(engine);
    let mut windows = Windows::new(WINDOW_NS);
    let start = clock.now_ns();
    let mut prev_end = start;
    loop {
        let t0 = clock.now_ns();
        if t0 - start >= duration_ns {
            break;
        }
        if keep_samples {
            phase.late_ns.push(t0 - prev_end);
        }
        let result = match tracer.as_mut() {
            None => engine.serve(slate),
            Some(t) => traced_call(engine, slate, t, clock, t0, &mut phase.in_flight_max),
        };
        let t1 = clock.now_ns();
        phase.attempted += 1;
        phase.engine_ns += t1 - t0;
        let ok = phase.collect(result, reference, t1 - t0, keep_samples);
        windows.push(t1 - start, t1 - t0, ok);
        prev_end = t1;
    }
    phase.windows = windows.finish();
    phase.in_flight_max = phase.in_flight_max.max(1);
    let elapsed = prev_end - start;
    phase.end(engine, cpu, elapsed);
    phase
}

fn traced_call(
    engine: &mut ServingEngine,
    slate: &[ServingRequest],
    tracer: &mut Tracer,
    clock: Clock,
    t0: u64,
    in_flight_max: &mut usize,
) -> Result<Outputs, nova::NovaError> {
    let submitted = engine.submit(slate);
    let t1 = clock.now_ns();
    *in_flight_max = (*in_flight_max).max(engine.in_flight());
    let ticket = submitted.as_ref().map_or(0, |t| t.id());
    let root = tracer.open("request", ticket, t0);
    tracer.record(Span {
        name: "submit",
        parent: Some(root),
        ticket,
        start_ns: t0,
        end_ns: t1,
        calls: 1,
    });
    let result = submitted.and_then(|t| engine.wait(t));
    let t2 = clock.now_ns();
    tracer.record(Span {
        name: "wait",
        parent: Some(root),
        ticket,
        start_ns: t1,
        end_ns: t2,
        calls: 1,
    });
    tracer.close(root, t2);
    result
}

/// A submitted open-loop request awaiting collection.
struct Pending {
    ticket: Ticket,
    tenant: usize,
    due_ns: u64,
    submitted_ns: u64,
    span: Option<SpanId>,
    polls: u32,
    first_poll_ns: u64,
    last_poll_ns: u64,
}

/// The open loop: a single-threaded generator that submits each
/// tenant's request when `schedule` says it is due, whatever the engine
/// is doing, and collects finished tickets with `try_poll` between
/// arrivals. Like a client with a bounded connection pool, it holds at
/// most [`OPEN_MAX_IN_FLIGHT`] tickets; a due request waits for a free
/// slot. Latency counts from the intended arrival either way, so a
/// stalled engine cannot hide the queueing it causes, but a stall of the
/// host cannot grow the engine's buffer pool without bound. The
/// generator yields while it waits, so the shard worker runs at once
/// when woken on the generator's vCPU. Its per-request latencies are
/// reserved up front from the schedule, whose length the seed fixes;
/// with `keep_samples` it also keeps how late each request was issued.
pub fn open_loop(
    engine: &mut ServingEngine,
    tenants: &[Vec<ServingRequest>],
    references: &[Outputs],
    schedule: OpenSchedule,
    clock: Clock,
    keep_samples: bool,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let (mut phase, cpu) = Phase::begin(engine);
    phase.latencies_ns.reserve_exact(schedule.clone().count());
    let mut schedule = schedule.peekable();
    let start = clock.now_ns();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut last_done = start;
    loop {
        let now = clock.now_ns();
        let due = schedule.peek().is_some_and(|a| a.at_ns <= now - start);
        if due && pending.len() < OPEN_MAX_IN_FLIGHT {
            let arrival = schedule.next().expect("peeked a due arrival");
            phase.attempted += 1;
            if keep_samples {
                phase.late_ns.push(now - start - arrival.at_ns);
            }
            let submitted = engine.submit(&tenants[arrival.tenant]);
            let t1 = clock.now_ns();
            phase.in_flight_max = phase.in_flight_max.max(engine.in_flight());
            let Ok(ticket) = submitted else { continue };
            let span = tracer.as_mut().map(|t| {
                let root = t.open("request", ticket.id(), start + arrival.at_ns);
                t.record(Span {
                    name: "submit",
                    parent: Some(root),
                    ticket: ticket.id(),
                    start_ns: now,
                    end_ns: t1,
                    calls: 1,
                });
                root
            });
            pending.push_back(Pending {
                ticket,
                tenant: arrival.tenant,
                due_ns: start + arrival.at_ns,
                submitted_ns: now,
                span,
                polls: 0,
                first_poll_ns: 0,
                last_poll_ns: 0,
            });
            continue;
        }
        let Some(front) = pending.front_mut() else {
            if schedule.peek().is_none() {
                break;
            }
            thread::yield_now();
            continue;
        };
        // One shard serves tickets in submit order, so only the oldest
        // can be ready.
        let Some(result) = engine.try_poll(front.ticket).transpose() else {
            if tracer.is_some() {
                if front.polls == 0 {
                    front.first_poll_ns = now;
                }
                front.polls += 1;
                front.last_poll_ns = clock.now_ns();
            }
            thread::yield_now();
            continue;
        };
        let done = clock.now_ns();
        let front = pending.pop_front().expect("polled the front ticket");
        last_done = done;
        phase.engine_ns += done - front.submitted_ns;
        let latency_ns = done - front.due_ns;
        if phase
            .collect(result, &references[front.tenant], latency_ns, true)
            .is_some()
        {
            phase.within_slo += u64::from(latency_ns <= OPEN_SLO_NS);
        }
        if let (Some(t), Some(root)) = (tracer.as_mut(), front.span) {
            let ticket = front.ticket.id();
            if front.polls > 0 {
                t.record(Span {
                    name: "try_poll.pending",
                    parent: Some(root),
                    ticket,
                    start_ns: front.first_poll_ns,
                    end_ns: front.last_poll_ns,
                    calls: front.polls,
                });
            }
            t.record(Span {
                name: "try_poll",
                parent: Some(root),
                ticket,
                start_ns: now,
                end_ns: done,
                calls: 1,
            });
            t.close(root, done);
        }
    }
    phase.end(engine, cpu, last_done - start);
    phase
}
