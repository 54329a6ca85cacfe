//! Uniform-grid spatial index over network senders.
//!
//! Buckets the sender of every link into square cells of a fixed size,
//! with deterministic iteration order (cells row-major, link indices
//! ascending within a cell). The senders are stored in that **cell
//! order**: [`SpatialGrid::items`] holds the link indices and
//! [`SpatialGrid::positions`] the sender positions beside them, so a run
//! of consecutive cells in one grid row is one contiguous slice of both.
//! The index answers two kinds of questions:
//!
//! * membership — which senders fall in a given cell
//!   ([`SpatialGrid::in_cell`]) or Chebyshev ring of cells
//!   ([`SpatialGrid::for_each_ring_range`], which hands out the ring's
//!   cells of each grid row as contiguous ranges of cell-order
//!   positions), and
//! * certified exclusion — a lower bound on the distance from a point to
//!   every sender *outside* an examined block of cells
//!   ([`SpatialGrid::exterior_distance`]), which is what the sparse-ratio
//!   builder's ring expansion uses to stop early with a certificate.
//!
//! The grid covers the bounding box of **all** link endpoints (senders
//! and receivers), so a receiver always lies inside its own cell and the
//! exterior-distance bound is valid for ring expansion around any
//! receiver.

use rayfade_geometry::{BoundingBox, Network, Point};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Hard cap on the number of grid cells — catches pathologically small
/// cell sizes before they allocate gigabytes of offsets.
const MAX_CELLS: u64 = 1 << 24;

/// Uniform grid over the senders of a [`Network`] (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialGrid {
    cell: f64,
    origin: Point,
    nx: usize,
    ny: usize,
    /// CSR over cells in row-major `(cy, cx)` order:
    /// cell `(cx, cy)` holds `items[cell_start[cy*nx+cx]..cell_start[cy*nx+cx+1]]`.
    cell_start: Vec<usize>,
    /// Link indices in cell order, ascending within each cell.
    items: Vec<u32>,
    /// Sender positions in cell order: `positions[k]` is the sender of
    /// link `items[k]`.
    positions: Vec<Point>,
}

impl SpatialGrid {
    /// Builds the grid with the given cell size over the bounding box of
    /// all link endpoints.
    ///
    /// # Panics
    /// If `cell` is not finite and positive, the box would need more than
    /// 2²⁴ cells, or the network holds more than `u32::MAX` links.
    pub fn build(network: &Network, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be finite and > 0"
        );
        let n = network.len();
        assert!(n <= u32::MAX as usize, "link index must fit in u32");
        let bbox = network
            .bounding_box()
            .unwrap_or_else(|| BoundingBox::square(0.0));
        let nx = Self::axis_cells(bbox.width(), cell);
        let ny = Self::axis_cells(bbox.height(), cell);
        assert!(
            (nx as u64) * (ny as u64) <= MAX_CELLS,
            "cell size {cell} is too small for the indexed area ({nx}x{ny} cells)"
        );
        let origin = bbox.lo;
        let index_of = |p: &Point| -> usize {
            let (cx, cy) = Self::clamped_cell(p, &origin, cell, nx, ny);
            cy * nx + cx
        };
        // Counting sort: deterministic, items ascending per cell because
        // links are visited in index order.
        let mut cell_start = vec![0usize; nx * ny + 1];
        for l in network.links() {
            cell_start[index_of(&l.sender) + 1] += 1;
        }
        for c in 0..nx * ny {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor = cell_start.clone();
        let mut items = vec![0u32; n];
        let mut positions = vec![Point::ORIGIN; n];
        for (j, l) in network.links().iter().enumerate() {
            let c = index_of(&l.sender);
            items[cursor[c]] = j as u32;
            positions[cursor[c]] = l.sender;
            cursor[c] += 1;
        }
        SpatialGrid {
            cell,
            origin,
            nx,
            ny,
            cell_start,
            items,
            positions,
        }
    }

    fn axis_cells(extent: f64, cell: f64) -> usize {
        if extent <= 0.0 {
            1
        } else {
            (extent / cell).floor() as usize + 1
        }
    }

    fn clamped_cell(p: &Point, origin: &Point, cell: f64, nx: usize, ny: usize) -> (usize, usize) {
        let ix = ((p.x - origin.x) / cell).floor();
        let iy = ((p.y - origin.y) / cell).floor();
        let cx = (ix.max(0.0) as usize).min(nx - 1);
        let cy = (iy.max(0.0) as usize).min(ny - 1);
        (cx, cy)
    }

    /// Number of indexed links.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the grid indexes no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The cell side length.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Grid dimensions `(nx, ny)` in cells.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// The cell containing `p`, clamped into the grid.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        Self::clamped_cell(p, &self.origin, self.cell, self.nx, self.ny)
    }

    /// Link indices in cell order (cells row-major, ascending within a
    /// cell).
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Sender positions in cell order, parallel to [`items`](Self::items).
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Link indices whose sender falls in cell `(cx, cy)`, ascending.
    #[inline]
    pub fn in_cell(&self, cx: usize, cy: usize) -> &[u32] {
        &self.items[self.cell_range(cx, cx, cy)]
    }

    /// Cell-order positions of the senders in cells `x_lo..=x_hi` of grid
    /// row `y`: consecutive cells of a row are contiguous in cell order.
    #[inline]
    fn cell_range(&self, x_lo: usize, x_hi: usize, y: usize) -> Range<usize> {
        let row = y * self.nx;
        self.cell_start[row + x_lo]..self.cell_start[row + x_hi + 1]
    }

    /// Calls `f` with the cell-order positions (indices into
    /// [`items`](Self::items) and [`positions`](Self::positions)) of every
    /// sender in the Chebyshev ring of cell-distance exactly `m` around
    /// `(cx, cy)` (ring 0 is the cell itself), as contiguous ranges: one
    /// for each of the ring's top and bottom rows, one for each side cell
    /// of the rows between. Cells outside the grid are skipped and empty
    /// ranges are not handed out. The visit order is deterministic: the
    /// top row, then the left and right cells of each middle row, then
    /// the bottom row, each left to right.
    pub fn for_each_ring_range<F: FnMut(Range<usize>)>(
        &self,
        cx: usize,
        cy: usize,
        m: usize,
        mut f: F,
    ) {
        let (cx, cy, m) = (cx as i64, cy as i64, m as i64);
        let mut visit_row = |y: i64, x_lo: i64, x_hi: i64| {
            if y < 0 || y >= self.ny as i64 {
                return;
            }
            let x_lo = x_lo.max(0);
            let x_hi = x_hi.min(self.nx as i64 - 1);
            if x_lo > x_hi {
                return;
            }
            let range = self.cell_range(x_lo as usize, x_hi as usize, y as usize);
            if !range.is_empty() {
                f(range);
            }
        };
        if m == 0 {
            visit_row(cy, cx, cx);
            return;
        }
        visit_row(cy - m, cx - m, cx + m);
        for y in (cy - m + 1)..=(cy + m - 1) {
            visit_row(y, cx - m, cx - m);
            visit_row(y, cx + m, cx + m);
        }
        visit_row(cy + m, cx - m, cx + m);
    }

    /// Lower bound on the distance from `p` to any indexed sender
    /// *outside* the block of cells `[cx−m, cx+m] × [cy−m, cy+m]`, or
    /// `None` when the block already covers the whole grid (nothing is
    /// outside).
    ///
    /// Valid for any `p` inside cell `(cx, cy)` — in particular for any
    /// link endpoint and its own cell, since the grid covers the full
    /// endpoint bounding box. This is the certificate behind the sparse
    /// builder's early ring-expansion stop.
    pub fn exterior_distance(&self, p: &Point, cx: usize, cy: usize, m: usize) -> Option<f64> {
        let lo_x = cx.saturating_sub(m);
        let hi_x = (cx + m).min(self.nx - 1);
        let lo_y = cy.saturating_sub(m);
        let hi_y = (cy + m).min(self.ny - 1);
        if lo_x == 0 && hi_x == self.nx - 1 && lo_y == 0 && hi_y == self.ny - 1 {
            return None;
        }
        let mut d = f64::INFINITY;
        if lo_x > 0 {
            d = d.min(p.x - (self.origin.x + lo_x as f64 * self.cell));
        }
        if hi_x < self.nx - 1 {
            d = d.min(self.origin.x + (hi_x + 1) as f64 * self.cell - p.x);
        }
        if lo_y > 0 {
            d = d.min(p.y - (self.origin.y + lo_y as f64 * self.cell));
        }
        if hi_y < self.ny - 1 {
            d = d.min(self.origin.y + (hi_y + 1) as f64 * self.cell - p.y);
        }
        Some(d.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayfade_geometry::Link;

    /// A 3×3 lattice of unit links: sender of link (i, j) at (10i, 10j).
    fn lattice() -> Network {
        let mut net = Network::default();
        for gy in 0..3 {
            for gx in 0..3 {
                let s = Point::new(10.0 * gx as f64, 10.0 * gy as f64);
                let r = Point::new(s.x + 1.0, s.y);
                net.push(Link::new(s, r));
            }
        }
        net
    }

    /// Link indices of the senders in ring `m`, in visit order.
    fn ring(g: &SpatialGrid, cx: usize, cy: usize, m: usize) -> Vec<u32> {
        let mut out = Vec::new();
        g.for_each_ring_range(cx, cy, m, |r| out.extend_from_slice(&g.items()[r]));
        out
    }

    #[test]
    fn build_is_deterministic_and_buckets_every_sender() {
        let net = lattice();
        let g1 = SpatialGrid::build(&net, 5.0);
        let g2 = SpatialGrid::build(&net, 5.0);
        assert_eq!(g1, g2);
        assert_eq!(g1.len(), 9);
        let mut seen: Vec<u32> = Vec::new();
        let (nx, ny) = g1.dims();
        for cy in 0..ny {
            for cx in 0..nx {
                seen.extend_from_slice(g1.in_cell(cx, cy));
            }
        }
        assert_eq!(seen, g1.items(), "cells concatenate to the cell order");
        for (&j, p) in g1.items().iter().zip(g1.positions()) {
            assert_eq!(*p, net.link(j as usize).sender, "position of link {j}");
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn rings_partition_the_grid() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 4.0);
        let (cx, cy) = g.cell_of(&Point::new(10.0, 10.0));
        let mut seen = Vec::new();
        for m in 0..16 {
            seen.extend(ring(&g, cx, cy, m));
            if g.exterior_distance(&Point::new(10.0, 10.0), cx, cy, m)
                .is_none()
            {
                break;
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>(), "each sender exactly once");
    }

    #[test]
    fn ring_ranges_follow_rows_top_to_bottom() {
        // Cell size 10 puts one lattice sender in each of the 3×3 cells
        // (the receivers widen the box by one unit, not a cell).
        let g = SpatialGrid::build(&lattice(), 10.0);
        assert_eq!(g.dims(), (3, 3));
        // Ring 1 around the centre cell: all of row y = 0 (the smallest
        // y comes first), the two side cells of row 1, then all of row 2.
        let mut ranges = Vec::new();
        g.for_each_ring_range(1, 1, 1, |r| ranges.push(r));
        assert_eq!(ranges, vec![0..3, 3..4, 5..6, 6..9]);
        assert_eq!(ring(&g, 1, 1, 1), vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(ring(&g, 1, 1, 0), vec![4]);
    }

    #[test]
    fn exterior_distance_is_a_true_lower_bound() {
        let net = lattice();
        let g = SpatialGrid::build(&net, 4.0);
        let p = Point::new(11.0, 9.0);
        let (cx, cy) = g.cell_of(&p);
        for m in 0..4 {
            let Some(bound) = g.exterior_distance(&p, cx, cy, m) else {
                break;
            };
            // Every sender outside the examined block must be at least
            // `bound` away.
            let inside: Vec<u32> = (0..=m).flat_map(|mm| ring(&g, cx, cy, mm)).collect();
            for j in 0..net.len() as u32 {
                if !inside.contains(&j) {
                    let d = net.link(j as usize).sender.distance(&p);
                    assert!(d >= bound, "ring {m}: sender {j} at {d} < bound {bound}");
                }
            }
        }
    }

    #[test]
    fn empty_network_builds_an_empty_grid() {
        let g = SpatialGrid::build(&Network::default(), 1.0);
        assert!(g.is_empty());
        assert!(g.positions().is_empty());
        assert_eq!(ring(&g, 0, 0, 0), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "cell size must be finite and > 0")]
    fn zero_cell_size_rejected() {
        let _ = SpatialGrid::build(&lattice(), 0.0);
    }
}
