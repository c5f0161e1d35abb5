//! The benchmark's traffic: the three workloads, their slates, the seed
//! shift and the open-loop arrival schedule. Benchmark-side only:
//! nothing here is timed, and the engine sees only the generated
//! requests.

use nova::engine::ApproximatorKind;
use nova::serving::{Plan, ServingEngine, ServingRequest, TableCache, TableKey};
use nova::NovaError;
use nova_approx::Activation;
use nova_fixed::rng::StdRng;
use nova_fixed::{Rounding, Q4_12};
use nova_noc::LineConfig;
use nova_workloads::traffic::query_words_into;

/// Every workload serves on a NOVA NoC line of 8 routers × 128 neurons:
/// 1,024-slot batches.
pub const KIND: ApproximatorKind = ApproximatorKind::NovaNoc;
pub const ROUTERS: usize = 8;
pub const NEURONS: usize = 128;
pub const ROUNDING: Rounding = Rounding::NearestEven;

/// `lookup-open` offers a fixed 5,000 requests/s: about a tenth of the
/// closed-loop capacity for its request size, far below the knee where
/// the engine's ticket ledger collapses (see the README's open items).
pub const OPEN_RATE_HZ: f64 = 5_000.0;
/// `lookup-open` tenants, and the GELU queries each request carries.
pub const OPEN_TENANTS: usize = 64;
pub const OPEN_QUERIES: usize = 64;
/// The latency limit `lookup-open`'s `slo_frac` counts against, from
/// the intended arrival.
pub const OPEN_SLO_NS: u64 = 1_000_000;
/// The most tickets the `lookup-open` generator keeps in flight: 3.2 ms
/// of arrivals at [`OPEN_RATE_HZ`], against ~0.1 in flight on average.
/// Only a stall fills it, and then the engine's buffer pool grows to
/// this bound rather than to the stall's length.
pub const OPEN_MAX_IN_FLIGHT: usize = 16;

/// How far one `--seed` step moves every query-stream seed. Wider than
/// any workload's base-seed range, so two seeds never share a stream.
const SEED_STRIDE: u64 = 1_000_000;
/// Base seed of the open-loop gap stream.
const GAP_SEED: u64 = 0x6a09_e667;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: every call serves the 16-stream ×
    /// 2,000-query GELU/exp slate (32 full batches).
    LookupBulk,
    /// Open loop at [`OPEN_RATE_HZ`]: one 64-query GELU request per
    /// ticket from one of [`OPEN_TENANTS`] tenants.
    LookupOpen,
    /// Closed loop, one client: every call serves 48 ragged
    /// fused-softmax rows (32–255 lanes, 7,208 in total).
    FusedAttention,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LookupBulk,
        Workload::LookupOpen,
        Workload::FusedAttention,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupBulk => "lookup-bulk",
            Workload::LookupOpen => "lookup-open",
            Workload::FusedAttention => "fused-attention",
        }
    }

    /// The tables the engine keeps resident, in registration order.
    pub fn tables(self) -> Vec<TableKey> {
        match self {
            Workload::LookupBulk => vec![gelu(), exp()],
            Workload::LookupOpen => vec![gelu()],
            Workload::FusedAttention => fused_plan().table_keys().collect(),
        }
    }

    /// FNV-1a of the seed-0 reference outputs, pinned by the
    /// repository's serving contract.
    pub fn pinned_checksum(self) -> Option<u64> {
        match self {
            Workload::LookupBulk => Some(0x5422_09cc_23db_d057),
            Workload::LookupOpen => None,
            Workload::FusedAttention => Some(0xfb6c_442d_2bec_bb18),
        }
    }

    /// The workload's distinct slates at `seed`. Closed loops serve
    /// their one slate on every call; `lookup-open` has one
    /// single-request slate per tenant.
    pub fn slates(self, seed: u64) -> Vec<Vec<ServingRequest>> {
        match self {
            Workload::LookupBulk => vec![(0..16)
                .map(|stream| {
                    let key = if stream % 2 == 0 { gelu() } else { exp() };
                    let inputs = queries(stream as u64, 2_000, seed);
                    ServingRequest::new(stream, key, inputs)
                })
                .collect()],
            Workload::LookupOpen => (0..OPEN_TENANTS)
                .map(|tenant| {
                    let inputs = queries(300 + tenant as u64, OPEN_QUERIES, seed);
                    vec![ServingRequest::new(tenant, gelu(), inputs)]
                })
                .collect(),
            Workload::FusedAttention => {
                let plan = fused_plan();
                vec![(0..48)
                    .map(|row| {
                        let inputs = queries(200 + row as u64, 32 + (row * 37) % 224, seed);
                        ServingRequest::new(row, plan.clone(), inputs)
                    })
                    .collect()]
            }
        }
    }

    /// A fresh one-shard engine with this workload's tables resident,
    /// fitted through `cache`.
    pub fn build_engine(self, cache: &TableCache) -> Result<ServingEngine, NovaError> {
        ServingEngine::builder(KIND)
            .line(LineConfig::paper_default(ROUTERS, NEURONS))
            .cache(cache)
            .tables(self.tables())
            .shards(1)
            .build()
    }
}

pub fn gelu() -> TableKey {
    TableKey::paper(Activation::Gelu)
}

pub fn exp() -> TableKey {
    TableKey::paper(Activation::Exp)
}

pub fn fused_plan() -> Plan {
    Plan::fused_softmax(Q4_12, ROUNDING)
}

/// `count` Q4.12 queries uniform on [−6, 6) from stream `base`, shifted
/// by `seed`. Seed 0 reproduces the repository's pinned slates.
fn queries(base: u64, count: usize, seed: u64) -> Vec<nova_fixed::Fixed> {
    let mut out = Vec::new();
    let stream = base.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
    query_words_into(stream, count, -6.0, 6.0, Q4_12, ROUNDING, &mut out);
    out
}

/// One open-loop request: when it is due (ns after the phase starts)
/// and which tenant sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at_ns: u64,
    pub tenant: usize,
}

/// The open-loop schedule for `seed`: gaps uniform on `[0, 2 / rate)`
/// (mean `1 / rate`) and a uniformly drawn tenant per request, for every
/// arrival due before `horizon_ns`. The rate is a constant of the
/// workload, never calibrated to the host. Arrivals are drawn as they
/// are needed, so the schedule takes no memory that would count in the
/// run's peak.
pub fn open_schedule(seed: u64, rate_hz: f64, horizon_ns: u64) -> OpenSchedule {
    OpenSchedule {
        rng: StdRng::seed_from_u64(GAP_SEED.wrapping_add(seed.wrapping_mul(SEED_STRIDE))),
        max_gap_ns: 2e9 / rate_hz,
        at_ns: 0.0,
        horizon_ns: horizon_ns as f64,
    }
}

/// The arrivals of [`open_schedule`], in order.
#[derive(Debug, Clone)]
pub struct OpenSchedule {
    rng: StdRng,
    max_gap_ns: f64,
    at_ns: f64,
    horizon_ns: f64,
}

impl Iterator for OpenSchedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.at_ns >= self.horizon_ns {
            return None;
        }
        self.at_ns += self.rng.gen_range(0.0..self.max_gap_ns);
        if self.at_ns >= self.horizon_ns {
            return None;
        }
        Some(Arrival {
            at_ns: self.at_ns as u64,
            tenant: self.rng.gen_range(0..OPEN_TENANTS),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedule_is_a_function_of_the_seed() {
        let schedule = |seed| open_schedule(seed, OPEN_RATE_HZ, 1_000_000_000).collect::<Vec<_>>();
        assert_eq!(schedule(3), schedule(3));
        assert_ne!(schedule(3), schedule(4));
    }

    #[test]
    fn open_schedule_holds_its_rate() {
        let horizon_ns = 10_000_000_000;
        let a: Vec<_> = open_schedule(0, OPEN_RATE_HZ, horizon_ns).collect();
        // 50,000 expected; uniform gaps keep the count within ~1 %.
        assert!((49_000..=51_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a
            .iter()
            .all(|r| r.at_ns < horizon_ns && r.tenant < OPEN_TENANTS));
        assert!((0..OPEN_TENANTS).all(|t| a.iter().any(|r| r.tenant == t)));
    }

    #[test]
    fn seeds_shift_every_stream() {
        for workload in Workload::ALL {
            let (zero, one) = (workload.slates(0), workload.slates(1));
            assert_eq!(zero.len(), one.len());
            for (a, b) in zero.iter().flatten().zip(one.iter().flatten()) {
                assert_eq!(a.inputs.len(), b.inputs.len(), "shapes never move");
                assert_ne!(a.inputs, b.inputs, "{}", workload.name());
            }
        }
    }

    #[test]
    fn slates_have_the_documented_shapes() {
        let lanes =
            |w: Workload| -> usize { w.slates(0).iter().flatten().map(|r| r.inputs.len()).sum() };
        assert_eq!(lanes(Workload::LookupBulk), 32_000);
        assert_eq!(lanes(Workload::LookupOpen), OPEN_TENANTS * OPEN_QUERIES);
        assert_eq!(lanes(Workload::FusedAttention), 7_208);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("lookup"), None);
    }
}
