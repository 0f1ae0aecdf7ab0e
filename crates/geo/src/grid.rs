//! A latitude/longitude bucket grid for nearest-neighbour queries.
//!
//! The topology builder needs two queries, both answered here:
//! "which metro PoP is closest to this probe?" and "which datacenters are
//! within R km of this point?". With at most a few thousand indexed
//! points a simple equi-angular bucket grid with ring expansion is both
//! simpler and faster than a k-d tree, and — unlike a k-d tree on raw
//! lat/lon — it handles the antimeridian wrap correctly.

use crate::GeoPoint;

/// An indexed entry: a point plus the caller's payload id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridEntry<T> {
    /// Location of the entry.
    pub point: GeoPoint,
    /// Caller-supplied payload (typically an index or node id).
    pub id: T,
}

/// Fixed-resolution spatial index over `GeoPoint`s.
///
/// Cells are `cell_deg`×`cell_deg` degrees. Queries scan expanding
/// *latitude row bands* (all longitudes of a row at once) and stop via
/// a latitudinal lower bound on great-circle distance — the only bound
/// that stays valid at the poles and across the antimeridian, where
/// per-cell ring bounds break down (see [`SpatialGrid::nearest`]).
#[derive(Debug, Clone)]
pub struct SpatialGrid<T> {
    cell_deg: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<GridEntry<T>>>,
    len: usize,
}

impl<T: Copy> SpatialGrid<T> {
    /// Creates an empty grid with the given cell size in degrees.
    ///
    /// # Panics
    /// Panics if `cell_deg` is not in `(0, 90]`.
    pub fn new(cell_deg: f64) -> Self {
        assert!(
            cell_deg > 0.0 && cell_deg <= 90.0,
            "cell size must be in (0, 90] degrees"
        );
        let cols = (360.0 / cell_deg).ceil() as usize;
        let rows = (180.0 / cell_deg).ceil() as usize;
        Self {
            cell_deg,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            len: 0,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn cell_of(&self, p: GeoPoint) -> (usize, usize) {
        let col = (((p.lon + 180.0) / self.cell_deg) as usize).min(self.cols - 1);
        let row = (((p.lat + 90.0) / self.cell_deg) as usize).min(self.rows - 1);
        (col, row)
    }

    /// Inserts a point with its payload.
    pub fn insert(&mut self, point: GeoPoint, id: T) {
        let (col, row) = self.cell_of(point);
        self.cells[row * self.cols + col].push(GridEntry { point, id });
        self.len += 1;
    }

    /// Returns the nearest entry to `query`, or `None` if the grid is empty.
    ///
    /// Scans expanding latitude *row bands* (all longitudes of a row at
    /// once) and stops once the latitudinal separation of the next band
    /// alone exceeds the best distance found. The latitudinal separation
    /// is a valid global lower bound on great-circle distance, so this
    /// is exact even at the poles and across the antimeridian, where
    /// per-cell ring bounds break down.
    pub fn nearest(&self, query: GeoPoint) -> Option<GridEntry<T>> {
        if self.is_empty() {
            return None;
        }
        const KM_PER_DEG_LAT: f64 = 111.19;
        let (_, qr) = self.cell_of(query);
        let qr = qr as isize;
        let mut best: Option<(f64, GridEntry<T>)> = None;
        let scan_row = |row: isize, best: &mut Option<(f64, GridEntry<T>)>| {
            if row < 0 || row >= self.rows as isize {
                return;
            }
            let base = row as usize * self.cols;
            for cell in &self.cells[base..base + self.cols] {
                for e in cell {
                    let d = query.distance_km(e.point);
                    if best.is_none_or(|(bd, _)| d < bd) {
                        *best = Some((d, *e));
                    }
                }
            }
        };
        for band in 0..self.rows as isize {
            if let Some((bd, _)) = best {
                // Points in a row `band` rows away differ by at least
                // (band - 1) * cell_deg degrees of latitude.
                let min_possible = (band - 1).max(0) as f64 * self.cell_deg * KM_PER_DEG_LAT;
                if min_possible > bd {
                    break;
                }
            }
            if band == 0 {
                scan_row(qr, &mut best);
            } else {
                scan_row(qr - band, &mut best);
                scan_row(qr + band, &mut best);
            }
        }
        best.map(|(_, e)| e)
    }

    /// Returns all entries within `radius_km` of `query`, sorted by
    /// ascending distance.
    ///
    /// Like [`SpatialGrid::nearest`], this scans whole latitude row
    /// bands: only the latitudinal separation is a globally valid lower
    /// bound on great-circle distance (longitude cells compress towards
    /// the poles), so the band count is derived from the radius in
    /// latitude degrees and every longitude in a band is visited.
    pub fn within(&self, query: GeoPoint, radius_km: f64) -> Vec<(f64, GridEntry<T>)> {
        const KM_PER_DEG_LAT: f64 = 111.19;
        let mut out = Vec::new();
        let bands = (radius_km / (KM_PER_DEG_LAT * self.cell_deg)).ceil() as isize + 1;
        let (_, qr) = self.cell_of(query);
        let qr = qr as isize;
        let lo = (qr - bands).max(0) as usize;
        let hi = ((qr + bands) as usize).min(self.rows - 1);
        for row in lo..=hi {
            let base = row * self.cols;
            for cell in &self.cells[base..base + self.cols] {
                for e in cell {
                    let d = query.distance_km(e.point);
                    if d <= radius_km {
                        out.push((d, *e));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with(points: &[(f64, f64)]) -> SpatialGrid<usize> {
        let mut g = SpatialGrid::new(5.0);
        for (i, &(lat, lon)) in points.iter().enumerate() {
            g.insert(GeoPoint::new(lat, lon), i);
        }
        g
    }

    #[test]
    fn empty_grid_has_no_nearest() {
        let g: SpatialGrid<usize> = SpatialGrid::new(5.0);
        assert!(g.nearest(GeoPoint::new(0.0, 0.0)).is_none());
        assert!(g.within(GeoPoint::new(0.0, 0.0), 1000.0).is_empty());
    }

    #[test]
    fn nearest_single_point() {
        let g = grid_with(&[(48.0, 11.0)]);
        let e = g.nearest(GeoPoint::new(-30.0, -60.0)).unwrap();
        assert_eq!(e.id, 0);
    }

    #[test]
    fn nearest_matches_brute_force() {
        // Deterministic pseudo-random scatter; compare against O(n) scan.
        let mut pts = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lat = ((x >> 16) % 17000) as f64 / 100.0 - 85.0;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lon = ((x >> 16) % 36000) as f64 / 100.0 - 180.0;
            pts.push((lat, lon));
        }
        let g = grid_with(&pts);
        for &(qlat, qlon) in pts.iter().step_by(37) {
            let q = GeoPoint::new(qlat + 3.3, qlon - 7.7);
            let got = g.nearest(q).unwrap();
            let want = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    q.distance_km(GeoPoint::new(a.1 .0, a.1 .1))
                        .total_cmp(&q.distance_km(GeoPoint::new(b.1 .0, b.1 .1)))
                })
                .unwrap()
                .0;
            let d_got = q.distance_km(GeoPoint::new(pts[got.id].0, pts[got.id].1));
            let d_want = q.distance_km(GeoPoint::new(pts[want].0, pts[want].1));
            assert!(
                (d_got - d_want).abs() < 1e-9,
                "grid {d_got} km vs brute {d_want} km"
            );
        }
    }

    #[test]
    fn wraps_across_antimeridian() {
        let g = grid_with(&[(0.0, 179.5), (0.0, 0.0)]);
        let e = g.nearest(GeoPoint::new(0.0, -179.5)).unwrap();
        assert_eq!(e.id, 0, "should find the point just across the dateline");
    }

    #[test]
    fn within_respects_radius_and_order() {
        let g = grid_with(&[(0.0, 0.0), (0.0, 1.0), (0.0, 5.0), (0.0, 60.0)]);
        let hits = g.within(GeoPoint::new(0.0, 0.0), 600.0);
        let ids: Vec<usize> = hits.iter().map(|(_, e)| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(hits.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn rejects_bad_cell_size() {
        let _ = SpatialGrid::<usize>::new(0.0);
    }
}
