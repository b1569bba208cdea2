//! Hexagonal eNodeB lattice geometry.
//!
//! Cells sit on a pointy-side-up hex lattice in axial coordinates
//! `(q, r)`: cell centers are `x = isd·(q + r/2)`, `y = isd·(√3/2)·r`,
//! so adjacent centers are exactly one inter-site distance (ISD) apart
//! and each cell's coverage area is the Voronoi region of its center —
//! a regular hexagon. A grid is the center cell plus `rings` full rings
//! around it (`rings = 1` is the classical 7-cell cluster), enumerated
//! in a deterministic spiral so [`CellId`] assignment never depends on
//! construction order.

/// Index of a cell within a [`HexGrid`] (spiral order, center = 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// The six axial neighbor offsets, in spiral-walk order.
const AXIAL_DIRS: [(i32, i32); 6] = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)];

/// A hex lattice of eNodeB sites.
#[derive(Clone, Debug)]
pub struct HexGrid {
    isd_m: f64,
    /// Axial coordinates in spiral enumeration order.
    axial: Vec<(i32, i32)>,
    /// Cartesian centers, index-aligned with `axial`. Computed once:
    /// the radio map reads one per (UE, cell) pair every measurement
    /// period.
    centers: Vec<(f64, f64)>,
}

/// Cartesian center of the lattice point `(q, r)`, meters.
fn axial_center(isd_m: f64, (q, r): (i32, i32)) -> (f64, f64) {
    let x = isd_m * (q as f64 + r as f64 / 2.0);
    let y = isd_m * (3.0f64.sqrt() / 2.0) * r as f64;
    (x, y)
}

impl HexGrid {
    /// Build the center cell plus `rings` full rings at the given
    /// inter-site distance. `rings = 0` is a single isolated cell.
    pub fn new(rings: usize, isd_m: f64) -> Self {
        assert!(isd_m > 0.0, "inter-site distance must be positive");
        let mut axial = vec![(0, 0)];
        for ring in 1..=rings as i32 {
            // Spiral walk: start `ring` steps along +q·(-1,1)… the usual
            // construction starts at direction 4 scaled by the ring.
            let (mut q, mut r) = (-ring, ring);
            for &(dq, dr) in &AXIAL_DIRS {
                for _ in 0..ring {
                    axial.push((q, r));
                    q += dq;
                    r += dr;
                }
            }
        }
        let centers = axial.iter().map(|&a| axial_center(isd_m, a)).collect();
        HexGrid { isd_m, axial, centers }
    }

    /// Number of cells: `1 + 3·rings·(rings+1)`.
    pub fn len(&self) -> usize {
        self.axial.len()
    }

    /// True for a zero-cell grid (never constructed by [`HexGrid::new`]).
    pub fn is_empty(&self) -> bool {
        self.axial.is_empty()
    }

    /// Inter-site distance in meters.
    pub fn isd_m(&self) -> f64 {
        self.isd_m
    }

    /// All cell ids in spiral order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.axial.len()).map(CellId)
    }

    /// Cartesian center of a cell, meters.
    pub fn center_of(&self, cell: CellId) -> (f64, f64) {
        self.centers[cell.0]
    }

    /// The lattice cell holding `(x, y)`, if that cell is in the grid.
    fn lattice_cell(&self, x: f64, y: f64) -> Option<CellId> {
        // Invert the center map to fractional axial, then cube-round:
        // rounding to the nearest lattice point in cube coordinates is
        // exactly the Voronoi (nearest-center) assignment for this
        // lattice.
        let rf = y / (self.isd_m * 3.0f64.sqrt() / 2.0);
        let qf = x / self.isd_m - rf / 2.0;
        let (q, r) = cube_round(qf, rf);
        self.axial.iter().position(|&a| a == (q, r)).map(CellId)
    }

    /// Serving cell for a position: the nearest site in the grid. Inside
    /// the lattice this is the cube-rounded hex lookup (no distance
    /// computations); positions beyond the outer ring fall back to a
    /// nearest-center scan so the lookup is total. Neither path
    /// allocates.
    pub fn serving_cell(&self, x: f64, y: f64) -> CellId {
        if let Some(c) = self.lattice_cell(x, y) {
            return c;
        }
        self.cells()
            .min_by(|&a, &b| {
                self.distance_sq(a, x, y).total_cmp(&self.distance_sq(b, x, y)).then(a.0.cmp(&b.0))
            })
            .expect("grid has at least one cell")
    }

    /// Squared distance from a cell's center to a position.
    pub fn distance_sq(&self, cell: CellId, x: f64, y: f64) -> f64 {
        let (cx, cy) = self.center_of(cell);
        (x - cx) * (x - cx) + (y - cy) * (y - cy)
    }

    /// Distance from a cell's center to a position, meters.
    pub fn distance_m(&self, cell: CellId, x: f64, y: f64) -> f64 {
        self.distance_sq(cell, x, y).sqrt()
    }

    /// The in-grid lattice neighbors of a cell (≤ 6), in direction order.
    pub fn neighbors(&self, cell: CellId) -> impl Iterator<Item = CellId> + '_ {
        let (q, r) = self.axial[cell.0];
        AXIAL_DIRS.iter().filter_map(move |&(dq, dr)| {
            self.axial.iter().position(|&a| a == (q + dq, r + dr)).map(CellId)
        })
    }

    /// Half-width of the grid's bounding region: the distance from the
    /// origin to the outermost cell center plus one cell radius. Mobility
    /// models use it to keep trajectories in coverage.
    pub fn extent_m(&self) -> f64 {
        let outer =
            self.cells().map(|c| self.distance_sq(c, 0.0, 0.0)).fold(0.0f64, f64::max).sqrt();
        outer + self.isd_m / 2.0
    }
}

/// Round fractional axial coordinates to the nearest lattice point via
/// cube coordinates (`x + y + z = 0`), fixing the axis with the largest
/// rounding error.
fn cube_round(qf: f64, rf: f64) -> (i32, i32) {
    let sf = -qf - rf;
    let (mut q, mut r, s) = (qf.round(), rf.round(), sf.round());
    let (dq, dr, ds) = ((q - qf).abs(), (r - rf).abs(), (s - sf).abs());
    if dq > dr && dq > ds {
        q = -r - s;
    } else if dr > ds {
        r = -q - s;
    }
    (q as i32, r as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_counts_follow_the_centered_hex_numbers() {
        for (rings, n) in [(0usize, 1usize), (1, 7), (2, 19), (3, 37)] {
            assert_eq!(HexGrid::new(rings, 500.0).len(), n, "rings {rings}");
        }
    }

    #[test]
    fn stored_centers_are_bit_equal_to_the_axial_expression() {
        for rings in 0..=4 {
            for isd in [160.0, 300.0, 500.0] {
                let g = HexGrid::new(rings, isd);
                assert_eq!(g.len(), 1 + 3 * rings * (rings + 1));
                for c in g.cells() {
                    let (q, r) = g.axial[c.0];
                    let x = isd * (q as f64 + r as f64 / 2.0);
                    let y = isd * (3.0f64.sqrt() / 2.0) * r as f64;
                    let (cx, cy) = g.center_of(c);
                    assert_eq!((cx.to_bits(), cy.to_bits()), (x.to_bits(), y.to_bits()), "{c:?}");
                }
            }
        }
    }

    #[test]
    fn adjacent_centers_are_one_isd_apart() {
        let g = HexGrid::new(2, 400.0);
        for c in g.cells() {
            for n in g.neighbors(c) {
                let (x, y) = g.center_of(n);
                let d = g.distance_m(c, x, y);
                assert!((d - 400.0).abs() < 1e-6, "{c:?}->{n:?} at {d}");
            }
        }
    }

    #[test]
    fn centers_map_back_to_their_cell() {
        let g = HexGrid::new(2, 500.0);
        for c in g.cells() {
            let (x, y) = g.center_of(c);
            assert_eq!(g.serving_cell(x, y), c);
        }
    }

    #[test]
    fn lookup_is_nearest_center() {
        let g = HexGrid::new(1, 300.0);
        // Deterministic scatter over the grid, including points outside.
        for k in 0..500 {
            let x = ((k * 37) % 1_400) as f64 - 700.0;
            let y = ((k * 61) % 1_400) as f64 - 700.0;
            let got = g.serving_cell(x, y);
            let best = g
                .cells()
                .min_by(|&a, &b| g.distance_sq(a, x, y).total_cmp(&g.distance_sq(b, x, y)))
                .unwrap();
            let (dg, db) = (g.distance_sq(got, x, y), g.distance_sq(best, x, y));
            assert!((dg - db).abs() < 1e-6, "({x},{y}): got {got:?} best {best:?}");
        }
    }

    #[test]
    fn center_cell_has_six_neighbors_edge_cells_fewer() {
        let g = HexGrid::new(1, 500.0);
        assert_eq!(g.neighbors(CellId(0)).count(), 6);
        for c in g.cells().skip(1) {
            assert_eq!(g.neighbors(c).count(), 3, "{c:?}");
        }
    }

    #[test]
    fn extent_covers_every_center() {
        let g = HexGrid::new(2, 500.0);
        for c in g.cells() {
            let (x, y) = g.center_of(c);
            assert!((x * x + y * y).sqrt() <= g.extent_m());
        }
    }
}
