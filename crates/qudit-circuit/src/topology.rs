//! Device connectivity graphs for topology-constrained compilation.
//!
//! The paper's resource accounting (and everything downstream of it in this
//! workspace) implicitly assumes an all-to-all device: any two qudits can
//! interact directly. Real hardware is connectivity-constrained, so a
//! [`Topology`] describes which pairs of physical sites support a two-qudit
//! gate, and the compiler's route step ([`crate::routing`]) maps logical
//! qudits onto sites and inserts qudit-SWAPs to make every interaction
//! local.
//!
//! Four standard families are provided — linear chain, ring, 2-D grid and a
//! heavy-hex row (hexagon chain with a site on every edge, the degree-≤3
//! pattern of IBM's heavy-hex lattices) — plus the explicit all-to-all
//! graph, which routing treats as the identity. Each site may carry an
//! optional *quality* weight (a relative error-rate multiplier derived from
//! per-site noise-model parameters; 1.0 is nominal, larger is worse) that
//! noise-aware placement consults to steer hot qudits onto good sites.

use crate::error::{CircuitError, CircuitResult};
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Which constructor family a [`Topology`] came from. The kind (plus its
/// parameters) fully determines the adjacency structure, so equality and
/// hashing key on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Every pair of sites is connected (the implicit default device).
    AllToAll,
    /// A chain: site `i` neighbours `i±1`.
    Linear,
    /// A cycle: the chain with the ends joined.
    Ring,
    /// A `rows × cols` rectangular lattice, row-major site numbering.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// A row of `cells` edge-sharing hexagons with an extra site on every
    /// edge ("heavy" hexagons): degree ≤ 3 everywhere, `12 + 9·(cells−1)`
    /// sites.
    HeavyHex {
        /// Number of hexagonal cells in the row.
        cells: usize,
    },
}

impl TopologyKind {
    /// The family's stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::AllToAll => "all-to-all",
            TopologyKind::Linear => "linear",
            TopologyKind::Ring => "ring",
            TopologyKind::Grid { .. } => "grid",
            TopologyKind::HeavyHex { .. } => "heavy-hex",
        }
    }
}

/// A device connectivity graph: `sites` physical qudits and the undirected
/// edges on which two-qudit gates are allowed, plus optional per-site
/// quality weights for noise-aware placement.
///
/// Construct through the family constructors ([`Topology::linear`],
/// [`Topology::ring`], [`Topology::grid`], [`Topology::heavy_hex`],
/// [`Topology::all_to_all`]); every constructed graph is connected, so
/// [`Topology::distance`] and [`Topology::shortest_path`] are total.
#[derive(Clone, Debug)]
pub struct Topology {
    kind: TopologyKind,
    sites: usize,
    /// Sorted neighbour lists, index = site.
    adjacency: Vec<Vec<usize>>,
    /// Per-site error-rate multipliers; empty = uniform (all 1.0).
    site_quality: Vec<f64>,
    /// Per-edge error-rate multipliers, aligned with [`Topology::edges`]
    /// order (each edge once, `u < v`, sorted by `u` then `v`); empty =
    /// uniform (all 1.0).
    edge_quality: Vec<f64>,
}

impl Topology {
    /// The fully connected device on `sites` qudits — routing on it is the
    /// identity.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when `sites` is zero.
    pub fn all_to_all(sites: usize) -> CircuitResult<Topology> {
        check_sites(sites)?;
        let adjacency = (0..sites)
            .map(|s| (0..sites).filter(|&t| t != s).collect())
            .collect();
        Ok(Topology {
            kind: TopologyKind::AllToAll,
            sites,
            adjacency,
            site_quality: Vec::new(),
            edge_quality: Vec::new(),
        })
    }

    /// A linear chain of `sites` qudits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when `sites` is zero.
    pub fn linear(sites: usize) -> CircuitResult<Topology> {
        check_sites(sites)?;
        let edges: Vec<(usize, usize)> = (1..sites).map(|s| (s - 1, s)).collect();
        Ok(Topology::from_edges(TopologyKind::Linear, sites, &edges))
    }

    /// A ring of `sites` qudits (the chain with the ends joined; for fewer
    /// than three sites this degenerates to the chain).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when `sites` is zero.
    pub fn ring(sites: usize) -> CircuitResult<Topology> {
        check_sites(sites)?;
        let mut edges: Vec<(usize, usize)> = (1..sites).map(|s| (s - 1, s)).collect();
        if sites > 2 {
            edges.push((sites - 1, 0));
        }
        Ok(Topology::from_edges(TopologyKind::Ring, sites, &edges))
    }

    /// A `rows × cols` rectangular grid, row-major site numbering: site
    /// `(r, c)` is `r * cols + c` and neighbours its horizontal and
    /// vertical lattice neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when either dimension
    /// is zero.
    pub fn grid(rows: usize, cols: usize) -> CircuitResult<Topology> {
        if rows == 0 || cols == 0 {
            return Err(CircuitError::IncompatibleCircuits {
                reason: format!("a {rows}x{cols} grid topology has no sites"),
            });
        }
        let site = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((site(r, c), site(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((site(r, c), site(r + 1, c)));
                }
            }
        }
        Ok(Topology::from_edges(
            TopologyKind::Grid { rows, cols },
            rows * cols,
            &edges,
        ))
    }

    /// A heavy-hex row of `cells` hexagons: a chain of edge-sharing
    /// hexagons with one extra site subdividing every edge, giving the
    /// degree-≤3 connectivity pattern of heavy-hex devices. Site count is
    /// `12 + 9·(cells − 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when `cells` is zero.
    pub fn heavy_hex(cells: usize) -> CircuitResult<Topology> {
        if cells == 0 {
            return Err(CircuitError::IncompatibleCircuits {
                reason: "a heavy-hex topology needs at least one cell".to_string(),
            });
        }
        // Corner graph: hexagon 0 is the 6-cycle 0–1–2–3–4–5; each later
        // cell attaches a 4-vertex path across the previous cell's shared
        // edge, forming the next 6-cycle.
        let mut corner_edges: Vec<(usize, usize)> =
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)];
        let mut corners = 6usize;
        let mut shared = (2, 3); // the rightmost edge of the previous cell
        for _ in 1..cells {
            let (top, bottom) = shared;
            let base = corners;
            corners += 4;
            corner_edges.push((top, base));
            corner_edges.push((base, base + 1));
            corner_edges.push((base + 1, base + 2));
            corner_edges.push((base + 2, base + 3));
            corner_edges.push((base + 3, bottom));
            shared = (base + 1, base + 2);
        }
        // "Heavy": subdivide every corner edge with a new site.
        let mut sites = corners;
        let mut edges = Vec::with_capacity(corner_edges.len() * 2);
        for (u, v) in corner_edges {
            let mid = sites;
            sites += 1;
            edges.push((u, mid));
            edges.push((mid, v));
        }
        Ok(Topology::from_edges(
            TopologyKind::HeavyHex { cells },
            sites,
            &edges,
        ))
    }

    fn from_edges(kind: TopologyKind, sites: usize, edges: &[(usize, usize)]) -> Topology {
        let mut adjacency = vec![Vec::new(); sites];
        for &(u, v) in edges {
            adjacency[u].push(v);
            adjacency[v].push(u);
        }
        for neighbours in &mut adjacency {
            neighbours.sort_unstable();
            neighbours.dedup();
        }
        Topology {
            kind,
            sites,
            adjacency,
            site_quality: Vec::new(),
            edge_quality: Vec::new(),
        }
    }

    /// Attaches per-site quality weights (relative error-rate multipliers;
    /// 1.0 is nominal, larger is worse). Noise-aware placement prefers
    /// low-weight sites for the most interaction-heavy logical qudits.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when the weight count
    /// does not match the site count or a weight is non-finite or ≤ 0.
    pub fn with_site_quality(mut self, quality: Vec<f64>) -> CircuitResult<Topology> {
        if quality.len() != self.sites {
            return Err(CircuitError::IncompatibleCircuits {
                reason: format!(
                    "{} site-quality weight(s) for a {}-site topology",
                    quality.len(),
                    self.sites
                ),
            });
        }
        if let Some(&bad) = quality.iter().find(|q| !q.is_finite() || **q <= 0.0) {
            return Err(CircuitError::IncompatibleCircuits {
                reason: format!("site-quality weight {bad} is not a positive finite number"),
            });
        }
        self.site_quality = quality;
        Ok(self)
    }

    /// Attaches per-edge quality weights (relative error-rate multipliers
    /// for two-qudit gates executed on that edge; 1.0 is nominal, larger is
    /// worse), aligned with [`Topology::edges`] order. Noise-aware routing
    /// steers SWAP chains away from bad edges, and the noise backends scale
    /// the two-qudit depolarizing probability of gates on an edge by its
    /// weight.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::IncompatibleCircuits`] when the weight count
    /// does not match the edge count or a weight is non-finite or ≤ 0.
    pub fn with_edge_quality(mut self, quality: Vec<f64>) -> CircuitResult<Topology> {
        let edge_count = self.edges().len();
        if quality.len() != edge_count {
            return Err(CircuitError::IncompatibleCircuits {
                reason: format!(
                    "{} edge-quality weight(s) for a topology with {} edge(s)",
                    quality.len(),
                    edge_count
                ),
            });
        }
        if let Some(&bad) = quality.iter().find(|q| !q.is_finite() || **q <= 0.0) {
            return Err(CircuitError::IncompatibleCircuits {
                reason: format!("edge-quality weight {bad} is not a positive finite number"),
            });
        }
        self.edge_quality = quality;
        Ok(self)
    }

    /// Which constructor family this topology belongs to.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The number of physical sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Whether this is the fully connected device (routing is the identity).
    pub fn is_all_to_all(&self) -> bool {
        self.kind == TopologyKind::AllToAll
    }

    /// The per-site quality weights; empty means uniform.
    pub fn site_quality(&self) -> &[f64] {
        &self.site_quality
    }

    /// The quality weight of one site (1.0 when uniform).
    pub fn quality(&self, site: usize) -> f64 {
        self.site_quality.get(site).copied().unwrap_or(1.0)
    }

    /// The per-edge quality weights, aligned with [`Topology::edges`]
    /// order; empty means uniform.
    pub fn edge_quality(&self) -> &[f64] {
        &self.edge_quality
    }

    /// The quality weight of the edge between two adjacent sites (1.0 when
    /// uniform or the sites are not adjacent).
    pub fn edge_quality_between(&self, a: usize, b: usize) -> f64 {
        if self.edge_quality.is_empty() {
            return 1.0;
        }
        let (u, v) = (a.min(b), a.max(b));
        self.edges()
            .iter()
            .position(|&e| e == (u, v))
            .and_then(|i| self.edge_quality.get(i).copied())
            .unwrap_or(1.0)
    }

    /// The sorted neighbour list of `site`.
    pub fn neighbors(&self, site: usize) -> &[usize] {
        &self.adjacency[site]
    }

    /// Whether a two-qudit gate between `a` and `b` is directly allowed.
    pub fn is_adjacent(&self, a: usize, b: usize) -> bool {
        a != b && self.adjacency[a].binary_search(&b).is_ok()
    }

    /// The undirected edge list, each edge once with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (u, neighbours) in self.adjacency.iter().enumerate() {
            for &v in neighbours {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        edges
    }

    /// The hop distance between two sites (0 for `a == b`). Total because
    /// every constructed topology is connected.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        self.bfs(a)[b].expect("constructed topologies are connected")
    }

    /// A shortest site path from `a` to `b`, inclusive of both endpoints.
    pub fn shortest_path(&self, a: usize, b: usize) -> Vec<usize> {
        if a == b {
            return vec![a];
        }
        let mut prev: Vec<Option<usize>> = vec![None; self.sites];
        let mut seen = vec![false; self.sites];
        let mut queue = VecDeque::new();
        seen[a] = true;
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            if u == b {
                break;
            }
            for &v in &self.adjacency[u] {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        let mut path = vec![b];
        let mut cur = b;
        while let Some(p) = prev[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], a, "constructed topologies are connected");
        path
    }

    /// BFS distances from `from` to every site.
    pub(crate) fn bfs(&self, from: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.sites];
        let mut queue = VecDeque::new();
        dist[from] = Some(0);
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            let d = dist[u].expect("enqueued sites have a distance");
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// All-pairs hop distances (`sites` BFS sweeps) — the routing pass
    /// precomputes this once per circuit.
    pub(crate) fn all_distances(&self) -> Vec<Vec<usize>> {
        (0..self.sites)
            .map(|s| {
                self.bfs(s)
                    .into_iter()
                    .map(|d| d.expect("constructed topologies are connected"))
                    .collect()
            })
            .collect()
    }
}

fn check_sites(sites: usize) -> CircuitResult<()> {
    if sites == 0 {
        return Err(CircuitError::IncompatibleCircuits {
            reason: "a topology needs at least one site".to_string(),
        });
    }
    Ok(())
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TopologyKind::Grid { rows, cols } => write!(f, "grid-{rows}x{cols}"),
            TopologyKind::HeavyHex { cells } => write!(f, "heavy-hex-{cells}"),
            kind => write!(f, "{}-{}", kind.name(), self.sites),
        }
    }
}

// Equality and hashing key on the constructor parameters (which determine
// the adjacency) plus the quality weights by bit pattern, so a `Topology`
// can key the executor's compilation cache.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        let bitwise = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.kind == other.kind
            && self.sites == other.sites
            && bitwise(&self.site_quality, &other.site_quality)
            && bitwise(&self.edge_quality, &other.edge_quality)
    }
}

impl Eq for Topology {}

impl Hash for Topology {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.sites.hash(state);
        for q in &self.site_quality {
            q.to_bits().hash(state);
        }
        // Length-prefix the edge weights so (site=[a], edge=[]) and
        // (site=[], edge=[a]) cannot collide.
        self.edge_quality.len().hash(state);
        for q in &self.edge_quality {
            q.to_bits().hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_adjacency_and_distance() {
        let t = Topology::linear(5).unwrap();
        assert_eq!(t.sites(), 5);
        assert!(t.is_adjacent(0, 1));
        assert!(!t.is_adjacent(0, 2));
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.shortest_path(0, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_wraps_around() {
        let t = Topology::ring(6).unwrap();
        assert!(t.is_adjacent(5, 0));
        assert_eq!(t.distance(0, 5), 1);
        assert_eq!(t.distance(0, 3), 3);
    }

    #[test]
    fn small_rings_degenerate_to_chains_without_duplicate_edges() {
        let t = Topology::ring(2).unwrap();
        assert_eq!(t.neighbors(0), &[1]);
        assert_eq!(t.edges(), vec![(0, 1)]);
    }

    #[test]
    fn grid_connects_lattice_neighbours() {
        let t = Topology::grid(2, 3).unwrap();
        assert_eq!(t.sites(), 6);
        assert!(t.is_adjacent(0, 1)); // (0,0)-(0,1)
        assert!(t.is_adjacent(0, 3)); // (0,0)-(1,0)
        assert!(!t.is_adjacent(0, 4)); // no diagonals
        assert_eq!(t.distance(0, 5), 3);
    }

    #[test]
    fn heavy_hex_row_has_the_documented_size_and_degree_bound() {
        for cells in 1..4 {
            let t = Topology::heavy_hex(cells).unwrap();
            assert_eq!(t.sites(), 12 + 9 * (cells - 1), "cells={cells}");
            let max_degree = (0..t.sites()).map(|s| t.neighbors(s).len()).max().unwrap();
            assert!(max_degree <= 3, "cells={cells}: degree {max_degree}");
            // Connected: every distance is defined (distance() would panic
            // otherwise).
            for s in 0..t.sites() {
                let _ = t.distance(0, s);
            }
        }
    }

    #[test]
    fn all_to_all_has_unit_distances() {
        let t = Topology::all_to_all(4).unwrap();
        assert!(t.is_all_to_all());
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.distance(a, b), usize::from(a != b));
            }
        }
    }

    #[test]
    fn shortest_paths_have_consistent_lengths() {
        for t in [
            Topology::linear(7).unwrap(),
            Topology::ring(7).unwrap(),
            Topology::grid(3, 3).unwrap(),
            Topology::heavy_hex(2).unwrap(),
        ] {
            for a in 0..t.sites() {
                for b in 0..t.sites() {
                    let path = t.shortest_path(a, b);
                    assert_eq!(path.len(), t.distance(a, b) + 1, "{t}: {a}->{b}");
                    assert_eq!(path[0], a);
                    assert_eq!(*path.last().unwrap(), b);
                    for pair in path.windows(2) {
                        assert!(t.is_adjacent(pair[0], pair[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn constructors_reject_empty_graphs() {
        assert!(Topology::linear(0).is_err());
        assert!(Topology::ring(0).is_err());
        assert!(Topology::grid(0, 3).is_err());
        assert!(Topology::grid(2, 0).is_err());
        assert!(Topology::heavy_hex(0).is_err());
        assert!(Topology::all_to_all(0).is_err());
    }

    #[test]
    fn site_quality_is_validated_and_keys_equality() {
        let t = Topology::linear(3).unwrap();
        assert!(t.clone().with_site_quality(vec![1.0, 2.0]).is_err());
        assert!(t
            .clone()
            .with_site_quality(vec![1.0, f64::NAN, 1.0])
            .is_err());
        assert!(t.clone().with_site_quality(vec![1.0, 0.0, 1.0]).is_err());
        let weighted = t.clone().with_site_quality(vec![1.0, 2.0, 1.0]).unwrap();
        assert_eq!(weighted.quality(1), 2.0);
        assert_ne!(weighted, t);
        assert_eq!(
            weighted,
            Topology::linear(3)
                .unwrap()
                .with_site_quality(vec![1.0, 2.0, 1.0])
                .unwrap()
        );
    }

    #[test]
    fn edge_quality_is_validated_and_keys_equality() {
        let t = Topology::linear(3).unwrap(); // edges (0,1), (1,2)
        assert!(t.clone().with_edge_quality(vec![1.0]).is_err());
        assert!(t.clone().with_edge_quality(vec![1.0, f64::NAN]).is_err());
        assert!(t.clone().with_edge_quality(vec![1.0, -2.0]).is_err());
        let weighted = t.clone().with_edge_quality(vec![1.0, 3.0]).unwrap();
        assert_eq!(weighted.edge_quality_between(1, 2), 3.0);
        assert_eq!(weighted.edge_quality_between(2, 1), 3.0);
        assert_eq!(weighted.edge_quality_between(0, 1), 1.0);
        assert_eq!(t.edge_quality_between(0, 1), 1.0, "uniform default");
        assert_ne!(weighted, t);
        assert_eq!(
            weighted,
            Topology::linear(3)
                .unwrap()
                .with_edge_quality(vec![1.0, 3.0])
                .unwrap()
        );
    }
}
