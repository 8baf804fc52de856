//! Interaction-radius selection.
//!
//! GRAPHINE picks the Rydberg interaction radius "large enough to ensure
//! that all of the qubits are reachable from all other qubits". The minimal
//! such radius over a set of points is the longest edge of their Euclidean
//! minimum spanning tree; any smaller radius disconnects the geometric
//! graph at that edge.

/// Longest edge of the Euclidean MST of `points`: the smallest radius at
/// which the geometric graph over them is connected. Returns 0 for fewer
/// than two points.
///
/// Edge weights are the float `dx*dx + dy*dy`, and the longest MST edge
/// under them is the same for every MST algorithm, so this returns the
/// exact `f64` of [`connecting_radius_prim`] (the oracle). It raises a
/// lower bound `t` until the graph of edges `<= t` is connected, with the
/// points bucketed into uniform cells:
///
/// 1. every component needs an MST edge leaving it, no shorter than the
///    distance to its nearest foreign point, so the largest such distance
///    over the components (skipping the biggest component, whose search
///    costs most) is a lower bound; from singletons it is the largest
///    nearest-neighbour distance;
/// 2. flood-fill the components of the graph of edges `<= t`; one
///    component means `t` is the answer, else go to 1 with them.
///
/// Every round strictly raises `t` and merges each non-largest component,
/// so there are O(log n) rounds; on near-uniform sets such as discretized
/// layouts one or two rounds at O(n) each settle it. Clustered sets whose
/// clusters share cells degrade towards O(n^2). Inputs the cells cannot
/// bucket (non-finite or subnormal-scale coordinates) take Prim's path.
pub fn connecting_radius(points: &[(f64, f64)]) -> f64 {
    if points.len() < 2 {
        return 0.0;
    }
    match bucketed_bottleneck_sq(points) {
        Some(longest_sq) => longest_sq.sqrt(),
        None => connecting_radius_prim(points),
    }
}

fn dist_sq(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

/// Longest edge of the Euclidean MST of `points` by Prim's algorithm,
/// O(n^2) time and O(n) memory. The general path of [`connecting_radius`]
/// and its differential oracle.
pub fn connecting_radius_prim(points: &[(f64, f64)]) -> f64 {
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut best_sq = vec![f64::INFINITY; n];
    in_tree[0] = true;
    for (j, bsq) in best_sq.iter_mut().enumerate().skip(1) {
        *bsq = dist_sq(points[0], points[j]);
    }
    let mut longest_sq: f64 = 0.0;
    for _ in 1..n {
        let mut next = usize::MAX;
        let mut next_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_sq[j] < next_d {
                next_d = best_sq[j];
                next = j;
            }
        }
        debug_assert!(next != usize::MAX);
        in_tree[next] = true;
        longest_sq = longest_sq.max(next_d);
        for j in 0..n {
            if !in_tree[j] {
                let d = dist_sq(points[next], points[j]);
                if d < best_sq[j] {
                    best_sq[j] = d;
                }
            }
        }
    }
    longest_sq.sqrt()
}

/// Relative slack on query reaches: a pair whose float `dist_sq` is at
/// most `d` has true axis offsets within `sqrt(d)` times `1 + 1e-15`, so
/// a box this much wider always contains it.
const REACH_SLACK: f64 = 1.0 + 1e-9;

/// The bucketed path of [`connecting_radius`]: the longest MST edge's
/// squared length, or `None` when the input cannot be bucketed
/// (non-finite coordinates, cell sizes that are not normal floats).
fn bucketed_bottleneck_sq(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len();
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        if !x.is_finite() || !y.is_finite() {
            return None;
        }
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    let (origin, span) = ((min_x, min_y), (max_x - min_x, max_y - min_y));
    if span == (0.0, 0.0) {
        return Some(0.0); // every point coincides
    }
    // About one point per cell: area over n, or span over n when the set
    // is (nearly) collinear.
    let cell = (span.0 * span.1 / n as f64).sqrt().max(span.0.max(span.1) / n as f64);
    let cells = PointCells::new(points, origin, span, cell)?;

    // Start from singletons, excluding point 0's.
    let mut label: Vec<u32> = (0..n as u32).collect();
    let (mut count, mut largest) = (n, 0);
    let mut longest_sq: f64 = 0.0;
    let mut leave_sq = Vec::new();
    loop {
        leave_sq.clear();
        leave_sq.resize(count, f64::INFINITY);
        for (i, &p) in points.iter().enumerate() {
            let c = label[i];
            if c != largest {
                let d = cells.nearest(points, p, longest_sq.sqrt().max(cell), |j| label[j] != c);
                leave_sq[c as usize] = leave_sq[c as usize].min(d);
            }
        }
        // Infinite only if a distance overflows; the cells below then
        // refuse the reach and Prim's path takes over.
        leave_sq[largest as usize] = longest_sq;
        longest_sq = leave_sq.iter().copied().fold(longest_sq, f64::max);
        let reach = longest_sq.sqrt() * REACH_SLACK;
        let mut fill = PointCells::new(points, origin, span, reach.max(cell))?;
        let sizes = fill.components(points, reach, longest_sq, &mut label);
        count = sizes.len();
        if count == 1 {
            return Some(longest_sq);
        }
        largest = (0..count).max_by_key(|&c| (sizes[c], std::cmp::Reverse(c))).unwrap() as u32;
    }
}

/// Points bucketed into a uniform grid of square cells over their
/// bounding box, as CSR (`offsets` per cell into `items`).
struct PointCells {
    origin: (f64, f64),
    cell: f64,
    nx: usize,
    ny: usize,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl PointCells {
    /// `None` when `cell` is not a normal float (zero, subnormal,
    /// infinite) or would make the grid far larger than the point count.
    fn new(points: &[(f64, f64)], origin: (f64, f64), span: (f64, f64), cell: f64) -> Option<Self> {
        if !cell.is_normal() {
            return None;
        }
        let (fx, fy) = ((span.0 / cell).floor() + 1.0, (span.1 / cell).floor() + 1.0);
        if fx * fy > 4.0 * points.len() as f64 + 16.0 {
            return None;
        }
        let mut grid = Self {
            origin,
            cell,
            nx: fx as usize,
            ny: fy as usize,
            offsets: vec![0; fx as usize * fy as usize + 1],
            items: vec![0; points.len()],
        };
        for &p in points {
            let c = grid.cell_of(p);
            grid.offsets[c + 1] += 1;
        }
        for c in 1..grid.offsets.len() {
            grid.offsets[c] += grid.offsets[c - 1];
        }
        let mut cursor = grid.offsets.clone();
        for (i, &p) in points.iter().enumerate() {
            let c = grid.cell_of(p);
            grid.items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        Some(grid)
    }

    /// Cell along one axis, clamped into `[0, dim)`. Monotone in `coord`,
    /// so a box's corner cells bound the cells of every point inside it.
    fn axis_cell(&self, coord: f64, origin: f64, dim: usize) -> usize {
        let c = ((coord - origin) / self.cell).floor();
        (c.max(0.0) as usize).min(dim - 1)
    }

    fn cell_of(&self, p: (f64, f64)) -> usize {
        self.axis_cell(p.1, self.origin.1, self.ny) * self.nx
            + self.axis_cell(p.0, self.origin.0, self.nx)
    }

    /// Inclusive cell ranges `(x0, x1, y0, y1)` covering every point whose
    /// axis offsets from `p` are within `reach`.
    fn box_cells(&self, p: (f64, f64), reach: f64) -> (usize, usize, usize, usize) {
        (
            self.axis_cell(p.0 - reach, self.origin.0, self.nx),
            self.axis_cell(p.0 + reach, self.origin.0, self.nx),
            self.axis_cell(p.1 - reach, self.origin.1, self.ny),
            self.axis_cell(p.1 + reach, self.origin.1, self.ny),
        )
    }

    /// Squared distance from `p` to the nearest point `j` with `keep(j)`:
    /// grow a box from `reach` until it holds such a point closer than
    /// its half-width, or covers the whole grid.
    fn nearest(
        &self,
        points: &[(f64, f64)],
        p: (f64, f64),
        mut reach: f64,
        keep: impl Fn(usize) -> bool,
    ) -> f64 {
        loop {
            let (x0, x1, y0, y1) = self.box_cells(p, reach);
            let mut best = f64::INFINITY;
            for cy in y0..=y1 {
                let row = cy * self.nx;
                let (lo, hi) =
                    (self.offsets[row + x0] as usize, self.offsets[row + x1 + 1] as usize);
                for &j in &self.items[lo..hi] {
                    if keep(j as usize) {
                        best = best.min(dist_sq(p, points[j as usize]));
                    }
                }
            }
            let whole = x0 == 0 && y0 == 0 && x1 == self.nx - 1 && y1 == self.ny - 1;
            if whole || best.sqrt() * REACH_SLACK <= reach {
                return best;
            }
            reach *= 2.0;
        }
    }

    /// Label the connected components of the graph of edges with
    /// `dist_sq <= max_sq` (`reach` bounds their axis offsets) into
    /// `label`, returning each component's size. Each point leaves its
    /// cell's live prefix once labelled, so it is scanned at most once
    /// after that.
    fn components(
        &mut self,
        points: &[(f64, f64)],
        reach: f64,
        max_sq: f64,
        label: &mut [u32],
    ) -> Vec<u32> {
        const UNLABELLED: u32 = u32::MAX;
        label.fill(UNLABELLED);
        let mut live: Vec<u32> = self.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mut sizes = Vec::new();
        let mut stack = Vec::new();
        for seed in 0..points.len() {
            if label[seed] != UNLABELLED {
                continue;
            }
            let c = sizes.len() as u32;
            label[seed] = c;
            sizes.push(1);
            stack.push(seed as u32);
            while let Some(i) = stack.pop() {
                let p = points[i as usize];
                let (x0, x1, y0, y1) = self.box_cells(p, reach);
                for cy in y0..=y1 {
                    for cx in x0..=x1 {
                        let cell = cy * self.nx + cx;
                        let base = self.offsets[cell] as usize;
                        let mut k = 0;
                        while k < live[cell] as usize {
                            let j = self.items[base + k] as usize;
                            // Seeds stay live when labelled; drop them here.
                            let fresh = label[j] == UNLABELLED;
                            if fresh && dist_sq(p, points[j]) > max_sq {
                                k += 1;
                                continue;
                            }
                            live[cell] -= 1;
                            self.items.swap(base + k, base + live[cell] as usize);
                            if fresh {
                                label[j] = c;
                                sizes[c as usize] += 1;
                                stack.push(j as u32);
                            }
                        }
                    }
                }
            }
        }
        sizes
    }
}

/// Whether the geometric graph over `points` with edge radius `r` is
/// connected (used to verify the radius choice).
pub fn is_geometrically_connected(points: &[(f64, f64)], r: f64) -> bool {
    let n = points.len();
    if n <= 1 {
        return true;
    }
    let r_sq = r * r + 1e-12;
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for j in 0..n {
            if !seen[j] {
                let dx = points[v].0 - points[j].0;
                let dy = points[v].1 - points[j].1;
                if dx * dx + dy * dy <= r_sq {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        assert_eq!(connecting_radius(&[]), 0.0);
        assert_eq!(connecting_radius(&[(0.5, 0.5)]), 0.0);
        assert!((connecting_radius(&[(0.0, 0.0), (0.0, 1.0)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_radius_is_largest_gap() {
        let pts = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0), (3.0, 0.0)];
        assert!((connecting_radius(&pts) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn radius_connects_and_smaller_disconnects() {
        let pts = [(0.0, 0.0), (0.2, 0.9), (1.1, 0.4), (0.7, 1.6), (2.0, 2.0)];
        let r = connecting_radius(&pts);
        assert!(is_geometrically_connected(&pts, r));
        assert!(!is_geometrically_connected(&pts, r * 0.99));
    }

    /// Point sets of one shape (`kind % 6`): uniform, duplicated,
    /// collinear, snapped to a 7 µm grid with holes, two far clusters
    /// (several raises of the bound), and a jittered grid with one far outlier.
    fn point_set(kind: u8, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let side = (n as f64).sqrt().ceil().max(1.0);
        (0..n)
            .map(|i| match kind % 6 {
                0 => (next(), next()),
                1 => {
                    let k = (next() * (n / 3 + 1) as f64) as usize;
                    (k as f64 * 0.37 % 1.0, k as f64 * 0.61 % 1.0)
                }
                2 => {
                    let t = next();
                    (0.25 + 0.5 * t, 0.1 + 0.3 * t)
                }
                3 => ((next() * 1.5 * side).floor() * 7.0, (next() * 1.5 * side).floor() * 7.0),
                4 => {
                    let off = if i % 2 == 0 { 0.0 } else { 5.0 };
                    (off + 0.1 * next(), off + 0.1 * next())
                }
                _ if i == 0 => (40.0, -3.0),
                _ => {
                    let (gx, gy) = ((i % side as usize) as f64, (i / side as usize) as f64);
                    (gx + 0.45 * (next() - 0.5), gy + 0.45 * (next() - 0.5))
                }
            })
            .collect()
    }

    fn assert_matches_prim(points: &[(f64, f64)]) {
        let fast = connecting_radius(points);
        let prim = connecting_radius_prim(points);
        assert_eq!(fast.to_bits(), prim.to_bits(), "{fast} vs {prim} over {} points", points.len());
    }

    #[test]
    fn bucketed_radius_matches_prim_on_every_shape() {
        for kind in 0..6 {
            for (n, seed) in [(2, 1), (3, 2), (17, 3), (250, 4), (2000, 5)] {
                assert_matches_prim(&point_set(kind, n, seed));
            }
        }
        // Degenerate inputs: all coincident, and coordinates too close for
        // any cell size to separate.
        assert_matches_prim(&[(0.3, 0.3); 50]);
        assert_matches_prim(&[(0.0, 0.0), (5e-324, 0.0), (0.0, 5e-324)]);
    }

    #[test]
    fn bucketed_path_settles_discretized_and_clustered_sets() {
        // A discretized layout: 2,000 of a 46x46 site grid's 2,116 sites.
        let sites = |keep: &dyn Fn(usize) -> bool| -> Vec<(f64, f64)> {
            (0..2116)
                .filter(|&i| keep(i))
                .map(|i| ((i % 46) as f64 * 7.0, (i / 46) as f64 * 7.0))
                .collect()
        };
        assert_eq!(bucketed_bottleneck_sq(&sites(&|i| i % 18 != 5)), Some(49.0));
        // Every nearest neighbour is one pitch away, but the block in the
        // corner reaches the rest only diagonally: one raise of the bound.
        let moat = |i: usize| {
            let (x, y) = (i % 46, i / 46);
            !((x == 3 && y <= 2) || (y == 3 && x <= 2))
        };
        assert_eq!(bucketed_bottleneck_sq(&sites(&moat)), Some(98.0));
        for kind in [0, 4, 5] {
            let pts = point_set(kind, 2000, 9);
            let prim = connecting_radius_prim(&pts);
            assert_eq!(bucketed_bottleneck_sq(&pts).map(f64::sqrt), Some(prim), "kind {kind}");
        }
        assert_eq!(bucketed_bottleneck_sq(&[(0.0, 0.0), (f64::NAN, 1.0)]), None);
        assert_eq!(bucketed_bottleneck_sq(&[(0.0, 0.0), (5e-324, 0.0)]), None);
    }

    mod bucketed_radius_matches_prim {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any shape, any size up to about 2,000 points: the bucketed
            /// radius is the oracle's `f64`, bit for bit.
            #[test]
            fn on_random_point_sets(kind in 0u8..6, n in 2usize..2000, seed in 0u64..1_000_000) {
                let points = point_set(kind, n, seed);
                let fast = connecting_radius(&points);
                let prim = connecting_radius_prim(&points);
                prop_assert_eq!(fast.to_bits(), prim.to_bits());
            }
        }
    }

    #[test]
    fn grid_of_points() {
        let mut pts = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                pts.push((x as f64, y as f64));
            }
        }
        assert!((connecting_radius(&pts) - 1.0).abs() < 1e-12);
    }
}
