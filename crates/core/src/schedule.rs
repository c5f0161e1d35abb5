//! Admission's packing decisions as one pure value.
//!
//! A [`Schedule`] is what the serving engine decides about a slate before
//! any query moves: per-group runs, their `(routers × neurons)` batches,
//! and the sequence-numbered work units those batches gather into (unit
//! `seq` runs on shard `seq % shards`). It is computed from request
//! shapes — group, query count, row alignment — never from values. The
//! functional [`crate::serving::ServingEngine`] executes it and the
//! analytic twins in [`crate::engine`] fold over it, so the two views of
//! a slate cannot drift apart.
//!
//! - Runs follow the groups' first-appearance order; within a run,
//!   request order, then query order. Empty requests pack nothing.
//! - A count-packed run fills batches query-continuously, so only its
//!   tail is partial. It is stored as counts (full batches plus one
//!   tail), so a multi-million-query census schedules in O(units).
//! - A row-aligned run (plans whose reduce stages span a request's row)
//!   never splits a request: a batch seals when the next row would
//!   overflow it, and a row wider than a batch is rejected.
//! - A run's batches gather, in order, into units of the adaptive
//!   `K = ⌈run_batches / 2·shards⌉ ∧ MAX_UNIT_BATCHES` (at least 1):
//!   deep runs fatten their units to amortize ring hops, shallow ones
//!   dispatch one batch per unit so tail latency and shard spread are
//!   unhurt at low load.

use crate::NovaError;

/// Hard cap on batches per work unit: the largest adaptive `K`.
pub const MAX_UNIT_BATCHES: usize = 8;

/// The adaptive `K` of a run of `run_batches` batches on `shards`
/// workers.
fn adaptive_k(run_batches: usize, shards: usize) -> usize {
    run_batches
        .div_ceil(2 * shards.max(1))
        .clamp(1, MAX_UNIT_BATCHES)
}

/// One work unit: a run of up to `k` same-group batches, dispatched as
/// one sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// The group (first-appearance index) whose run this unit carries.
    pub group: usize,
    /// The adaptive `K` of the unit's run. Every unit of the run holds
    /// `k` batches except possibly the last.
    pub k: usize,
    fills: Fills,
}

/// A unit's batch fills, in packing order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fills {
    /// `full` full batches, then one `tail`-query batch when `tail > 0`.
    Counted { full: usize, tail: usize },
    /// Row-aligned fills: `Schedule::row_fills[start..end]`.
    Listed { start: usize, end: usize },
}

impl Unit {
    /// Batches in this unit.
    #[must_use]
    pub fn batches(&self) -> usize {
        match self.fills {
            Fills::Counted { full, tail } => full + usize::from(tail > 0),
            Fills::Listed { start, end } => end - start,
        }
    }
}

/// A slate's packing decisions: the work units in sequence order, each
/// with its group, its batches' fills and its run's adaptive `K`. See
/// the [module docs](self) for the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    capacity: usize,
    units: Vec<Unit>,
    /// Fills of every row-aligned batch, in unit order.
    row_fills: Vec<usize>,
}

impl Schedule {
    /// Schedules a slate given as `(group, queries)` request shapes.
    /// `row_aligned[g]` says whether group `g` packs whole rows;
    /// `capacity` is the batch size (`routers × neurons`) and `shards`
    /// the worker count the adaptive `K` spreads over.
    ///
    /// # Errors
    ///
    /// Returns [`NovaError::BatchShape`] for a row-aligned request wider
    /// than `capacity`: its reduce stages cannot span batches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or a shape names a group outside
    /// `row_aligned`.
    pub fn build<I>(
        shapes: I,
        row_aligned: &[bool],
        capacity: usize,
        shards: usize,
    ) -> Result<Self, NovaError>
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        assert!(capacity > 0, "a schedule needs a non-zero batch capacity");
        let shapes = shapes.into_iter();
        let mut totals = vec![0usize; row_aligned.len()];
        for (group, queries) in shapes.clone() {
            if row_aligned[group] && queries > capacity {
                return Err(NovaError::BatchShape(format!(
                    "row-aligned request of {queries} queries exceeds the batch capacity \
                     {capacity} (routers × neurons): reduce stages span a request's whole \
                     row, so it must fit one batch"
                )));
            }
            totals[group] += queries;
        }
        let mut schedule = Self {
            capacity,
            units: Vec::new(),
            row_fills: Vec::new(),
        };
        for (group, &total) in totals.iter().enumerate().filter(|&(_, &t)| t > 0) {
            let start = schedule.row_fills.len();
            let batches = if row_aligned[group] {
                let mut fill = 0;
                for (_, queries) in shapes.clone().filter(|&(g, q)| g == group && q > 0) {
                    if fill + queries > capacity {
                        schedule.row_fills.push(fill);
                        fill = 0;
                    }
                    fill += queries;
                }
                schedule.row_fills.push(fill);
                schedule.row_fills.len() - start
            } else {
                total.div_ceil(capacity)
            };
            let k = adaptive_k(batches, shards);
            let full = total / capacity;
            for first in (0..batches).step_by(k) {
                let last = (first + k).min(batches);
                let fills = if row_aligned[group] {
                    Fills::Listed {
                        start: start + first,
                        end: start + last,
                    }
                } else {
                    Fills::Counted {
                        full: last.min(full) - first,
                        tail: if last > full { total % capacity } else { 0 },
                    }
                };
                schedule.units.push(Unit { group, k, fills });
            }
        }
        Ok(schedule)
    }

    /// The work units, in sequence order.
    #[must_use]
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// The queries each of `unit`'s batches packs, in packing order.
    pub fn fills<'a>(&'a self, unit: &Unit) -> impl Iterator<Item = usize> + 'a {
        let (full, tail, listed) = match unit.fills {
            Fills::Counted { full, tail } => (full, tail, &[][..]),
            Fills::Listed { start, end } => (0, 0, &self.row_fills[start..end]),
        };
        std::iter::repeat_n(self.capacity, full)
            .chain((tail > 0).then_some(tail))
            .chain(listed.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_workloads::traffic::TrafficMix;

    fn all_fills(s: &Schedule) -> Vec<Vec<usize>> {
        s.units().iter().map(|u| s.fills(u).collect()).collect()
    }

    fn batches(s: &Schedule) -> usize {
        s.units().iter().map(Unit::batches).sum()
    }

    #[test]
    fn row_aligned_rows_never_split_across_batches() {
        // Capacity 10: 6 + 3 share a batch, 4 would overflow it, so it
        // seals and starts the next; 10 fills one exactly.
        let rows = [6usize, 3, 4, 10, 1];
        let s = Schedule::build(rows.iter().map(|&q| (0, q)), &[true], 10, 4).unwrap();
        let fills: Vec<usize> = all_fills(&s).concat();
        assert_eq!(fills, [9, 4, 10, 1]);
        // Every batch is a whole number of consecutive rows.
        let mut row = 0;
        for fill in fills {
            let mut packed = 0;
            while packed < fill {
                packed += rows[row];
                row += 1;
            }
            assert_eq!(packed, fill, "a row split across batches");
        }
        assert!(matches!(
            Schedule::build([(0, 11)], &[true], 10, 1),
            Err(NovaError::BatchShape(_))
        ));
        // Count-packed runs split freely, so no width is too wide.
        let s = Schedule::build([(0, 25)], &[false], 10, 1).unwrap();
        assert_eq!(all_fills(&s).concat(), [10, 10, 5]);
    }

    #[test]
    fn empty_requests_produce_no_batch() {
        // Group 1 holds only empty requests; group 0 interleaves them.
        let shapes = [(0, 0), (1, 0), (0, 7), (0, 0), (2, 3), (1, 0)];
        for aligned in [false, true] {
            let s = Schedule::build(shapes, &[aligned; 3], 10, 1).unwrap();
            assert_eq!(batches(&s), 2, "row_aligned={aligned}");
            assert!(s.units().iter().all(|u| u.group != 1));
            assert!(s.fills(&s.units()[0]).all(|f| f > 0));
        }
        let s = Schedule::build([(0, 0), (0, 0)], &[true], 10, 1).unwrap();
        assert!(s.units().is_empty());
        assert_eq!(batches(&s), 0);
    }

    #[test]
    fn adaptive_k_takes_one_three_and_eight() {
        // K = ⌈batches / 2·shards⌉ ∧ 8, at least 1.
        for (depth, shards, k) in [
            (1usize, 1usize, 1usize),
            (3, 4, 1),
            (5, 1, 3),
            (12, 2, 3),
            (16, 1, 8),
            (400, 4, 8),
        ] {
            let s = Schedule::build([(0, depth * 10)], &[false], 10, shards).unwrap();
            assert!(
                s.units().iter().all(|u| u.k == k),
                "{depth} batches x{shards}"
            );
            assert_eq!(s.units().len(), depth.div_ceil(k));
            assert_eq!(batches(&s), depth);
            // Every unit but the last holds exactly K batches.
            let (last, rest) = s.units().split_last().unwrap();
            assert!(rest.iter().all(|u| u.batches() == k));
            assert!(last.batches() <= k);
        }
        // The ragged tail rides in the run's last unit.
        let s = Schedule::build([(0, 53)], &[false], 10, 1).unwrap();
        assert_eq!(all_fills(&s), [vec![10, 10, 10], vec![10, 10, 3]]);
    }

    #[test]
    fn census_slate_schedules_in_units_not_batches() {
        let slate = TrafficMix::paper_default(16).census_slate();
        let capacity = 1024;
        let mut groups = Vec::new();
        let shapes: Vec<(usize, usize)> = slate
            .iter()
            .map(|(activation, census)| {
                let g = groups
                    .iter()
                    .position(|a| a == activation)
                    .unwrap_or_else(|| {
                        groups.push(*activation);
                        groups.len() - 1
                    });
                (g, usize::try_from(census.approximator_queries()).unwrap())
            })
            .collect();
        for shards in [1usize, 4] {
            let s = Schedule::build(
                shapes.iter().copied(),
                &vec![false; groups.len()],
                capacity,
                shards,
            )
            .unwrap();
            let expected: usize = (0..groups.len())
                .map(|g| {
                    let queries: usize = shapes
                        .iter()
                        .filter(|&&(h, _)| h == g)
                        .map(|&(_, q)| q)
                        .sum();
                    let batches = queries.div_ceil(capacity);
                    batches.div_ceil(adaptive_k(batches, shards))
                })
                .sum();
            assert_eq!(s.units().len(), expected);
            assert!(
                s.units().len() < batches(&s),
                "{} units for {} batches",
                s.units().len(),
                batches(&s)
            );
        }
    }
}
