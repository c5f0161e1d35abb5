//! A flat, contiguous `(routers × neurons)` batch of fixed-point words.
//!
//! The serving hot path used to shuttle nested `Vec<Vec<Fixed>>` batches
//! through every layer — one heap allocation per router row per batch,
//! plus pointer-chasing on every access. [`FixedBatch`] replaces that
//! with the layout the hardware model actually has: one contiguous
//! buffer in row-major order, so a batch is a single allocation, rows
//! are slices, and a whole batch can be recycled across serve calls
//! without touching the allocator.

use std::fmt;

use crate::{Fixed, FixedError};

/// A dense row-major batch of [`Fixed`] words on a `(routers × neurons)`
/// grid.
///
/// Each slot is one 8-byte [`Fixed`] (an `i32` word plus its 2-byte
/// format), so a 1,024-slot serving batch is 8 KiB of contiguous
/// storage.
///
/// # Invariants
///
/// - `data.len() == routers * neurons` at all times — there is no
///   partially filled state; [`reset`](Self::reset) re-establishes the
///   invariant in one step when the grid changes.
/// - The word at grid position `(r, n)` lives at flat index
///   `r * neurons + n` (row-major). Row `r` is the contiguous slice
///   `data[r * neurons .. (r + 1) * neurons]`.
/// - Tail padding is ordinary data: a serving layer that packs a partial
///   batch writes its pad word into the trailing slots, and the batch
///   itself does not distinguish pad from payload. Callers that scatter
///   results back are responsible for dropping the padded tail — exactly
///   as with the nested representation.
/// - The buffer's *capacity* is never shrunk by [`reset`](Self::reset),
///   so a recycled batch reaches a steady state where no call allocates.
/// - No format invariant is imposed across slots (validation belongs to
///   the datapath that consumes the batch), but every constructor fills
///   each slot with a real word — a `FixedBatch` never exposes
///   uninitialized memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBatch {
    data: Vec<Fixed>,
    routers: usize,
    neurons: usize,
}

impl FixedBatch {
    /// A `routers × neurons` batch with every slot set to `fill`.
    #[must_use]
    pub fn new(routers: usize, neurons: usize, fill: Fixed) -> Self {
        Self {
            data: vec![fill; routers * neurons],
            routers,
            neurons,
        }
    }

    /// The empty `0 × 0` batch — the natural seed for an output buffer
    /// that a callee will [`reset`](Self::reset) to its own grid.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            data: Vec::new(),
            routers: 0,
            neurons: 0,
        }
    }

    /// Builds a batch by flattening nested rows (the legacy
    /// representation) into contiguous storage.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::RaggedRows`] if any row's width differs from
    /// the first row's — a ragged grid has no flat layout.
    pub fn from_rows(rows: &[Vec<Fixed>]) -> Result<Self, FixedError> {
        let neurons = rows.first().map_or(0, Vec::len);
        if let Some((row, r)) = rows.iter().enumerate().find(|(_, r)| r.len() != neurons) {
            return Err(FixedError::RaggedRows {
                row,
                got: r.len(),
                expected: neurons,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * neurons);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Self {
            data,
            routers: rows.len(),
            neurons,
        })
    }

    /// Expands back into nested rows (the legacy representation). Costs
    /// one allocation per row — compatibility only, not a hot path.
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<Fixed>> {
        self.rows().map(<[Fixed]>::to_vec).collect()
    }

    /// Grid dimensions as `(routers, neurons)`.
    #[must_use]
    pub fn dims(&self) -> (usize, usize) {
        (self.routers, self.neurons)
    }

    /// Router rows in the grid.
    #[must_use]
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Neurons (columns) per router row.
    #[must_use]
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Total slots (`routers × neurons`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the batch holds no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocated capacity in slots — stable across
    /// [`reset`](Self::reset) calls that fit, which is what the serving
    /// layer's recycling test asserts.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= routers`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[Fixed] {
        &self.data[r * self.neurons..(r + 1) * self.neurons]
    }

    /// Row `r` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= routers`.
    pub fn row_mut(&mut self, r: usize) -> &mut [Fixed] {
        &mut self.data[r * self.neurons..(r + 1) * self.neurons]
    }

    /// Iterates the router rows as contiguous slices.
    pub fn rows(&self) -> impl Iterator<Item = &[Fixed]> {
        // `chunks(0)` panics; an empty grid simply yields no rows.
        self.data.chunks(self.neurons.max(1))
    }

    /// The whole grid as one flat row-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Fixed] {
        &self.data
    }

    /// The whole grid as one flat mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [Fixed] {
        &mut self.data
    }

    /// Reshapes to `routers × neurons` with every slot set to `fill`,
    /// reusing the existing allocation. This is the recycling primitive:
    /// once a buffer has served a grid, resetting it to the same (or a
    /// smaller) grid never touches the allocator.
    pub fn reset(&mut self, routers: usize, neurons: usize, fill: Fixed) {
        self.routers = routers;
        self.neurons = neurons;
        self.data.clear();
        self.data.resize(routers * neurons, fill);
    }

    /// Copies another batch's grid and contents into this buffer,
    /// reusing the existing allocation (a `clone_from` that keeps
    /// capacity).
    pub fn copy_from(&mut self, other: &FixedBatch) {
        self.routers = other.routers;
        self.neurons = other.neurons;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }
}

impl fmt::Display for FixedBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FixedBatch({}×{})", self.routers, self.neurons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rounding, Q4_12};

    fn w(x: f64) -> Fixed {
        Fixed::from_f64(x, Q4_12, Rounding::NearestEven)
    }

    #[test]
    fn row_major_layout() {
        let mut b = FixedBatch::new(3, 4, w(0.0));
        b.row_mut(1)[2] = w(1.5);
        assert_eq!(b.as_slice()[6], w(1.5), "flat index = r * neurons + n");
        assert_eq!(b.row(1)[2], w(1.5));
        assert_eq!(b.dims(), (3, 4));
        assert_eq!(b.len(), 12);
    }

    #[test]
    fn rows_iterate_in_order() {
        let rows: Vec<Vec<Fixed>> = (0..3)
            .map(|r| (0..2).map(|n| w(r as f64 + n as f64 * 0.25)).collect())
            .collect();
        let b = FixedBatch::from_rows(&rows).unwrap();
        let collected: Vec<&[Fixed]> = b.rows().collect();
        assert_eq!(collected.len(), 3);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(collected[r], row.as_slice());
        }
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = vec![vec![w(0.0); 4], vec![w(0.0); 3]];
        assert!(matches!(
            FixedBatch::from_rows(&rows),
            Err(FixedError::RaggedRows {
                row: 1,
                got: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut b = FixedBatch::new(4, 8, w(0.5));
        let cap = b.capacity();
        // Same grid: everything refilled, no allocation.
        b.as_mut_slice()[7] = w(1.0);
        b.reset(4, 8, w(-0.25));
        assert!(b.as_slice().iter().all(|&x| x == w(-0.25)));
        assert_eq!(b.capacity(), cap);
        // Smaller grid still fits the allocation.
        b.reset(2, 8, w(0.0));
        assert_eq!(b.dims(), (2, 8));
        assert_eq!(b.capacity(), cap);
    }

    #[test]
    fn empty_batch_behaves() {
        let b = FixedBatch::empty();
        assert!(b.is_empty());
        assert_eq!(b.dims(), (0, 0));
        assert_eq!(b.rows().count(), 0);
        assert!(FixedBatch::from_rows(&[]).unwrap().is_empty());
    }

    #[test]
    fn copy_from_matches_and_keeps_capacity() {
        let src = FixedBatch::new(2, 3, w(1.25));
        let mut dst = FixedBatch::new(5, 5, w(0.0));
        let cap = dst.capacity();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.capacity(), cap);
    }
}
