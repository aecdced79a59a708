//! Connectivity-constrained routing: initial placement plus qudit-SWAP
//! insertion.
//!
//! Devices are not all-to-all connected, but every circuit in this IR is
//! written against a fully connected logical register. The compiler's
//! route step closes the gap for a given [`Topology`]: it picks an initial
//! *placement* of logical qudits onto physical sites by greedy
//! interaction-graph mapping (optionally steered by per-site and per-edge
//! quality weights, so the hottest qudits land on the least noisy sites
//! and away from the worst links), then walks the operation list and
//! inserts qudit-SWAPs — chosen with a decaying-lookahead cost heuristic
//! that also penalises executing a SWAP on a poor-quality edge — whenever
//! a two-qudit gate's endpoints are not adjacent.
//!
//! The routed circuit acts on *sites*. Routing records the initial
//! placement and the final (post-SWAP) logical→site mapping in a
//! [`RoutingSummary`]; composing the routed circuit with those
//! permutations recovers the original unitary exactly, which is what the
//! differential test harness checks:
//!
//! ```text
//! routed ∘ embed(placement) = embed(final_mapping) ∘ unrouted
//! ```
//!
//! Inserted SWAPs are full `d²`-permutations ([`Gate::swap`]) named
//! `"RSWAP"` so router-inserted operations remain distinguishable from the
//! circuit's own gates. Routing leaves the operation list completely
//! untouched when every multi-qudit gate is already nearest-neighbour — in
//! particular on an all-to-all topology it is the identity on the op list.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::operation::{Control, Operation};
use crate::passes::Step;
use crate::topology::Topology;

/// How many upcoming two-qudit interactions the SWAP heuristic scores.
const LOOKAHEAD_WINDOW: usize = 8;
/// Geometric decay applied to each successive lookahead interaction.
const LOOKAHEAD_DECAY: f64 = 0.5;

/// What routing did: the placement permutations and the SWAP/unroutable
/// counts the routed resource columns are built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingSummary {
    /// Initial placement: `placement[q]` is the site logical qudit `q`
    /// starts on.
    pub placement: Vec<usize>,
    /// Final mapping after all inserted SWAPs: `final_mapping[q]` is the
    /// site logical qudit `q`'s state ends on.
    pub final_mapping: Vec<usize>,
    /// Number of qudit-SWAP operations inserted.
    pub inserted_swaps: usize,
    /// Operations of arity ≥ 3 whose qudits could not be made mutually
    /// adjacent (most topologies cannot host a 3-clique); they pass
    /// through remapped but un-localised.
    pub unrouted: usize,
}

impl RoutingSummary {
    /// An identity summary for `width` qudits: trivial placement, no SWAPs.
    fn identity(width: usize) -> Self {
        RoutingSummary {
            placement: (0..width).collect(),
            final_mapping: (0..width).collect(),
            inserted_swaps: 0,
            unrouted: 0,
        }
    }

    /// Whether routing left the circuit untouched (identity placement and
    /// no inserted SWAPs).
    pub fn is_identity(&self) -> bool {
        self.inserted_swaps == 0
            && self.placement.iter().enumerate().all(|(q, &s)| q == s)
            && self.final_mapping.iter().enumerate().all(|(q, &s)| q == s)
    }
}

/// All unordered qudit pairs of one operation's support.
fn pairs(qudits: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    qudits
        .iter()
        .enumerate()
        .flat_map(move |(i, &a)| qudits[i + 1..].iter().map(move |&b| (a, b)))
}

/// Routes `circuit` onto `topology`: greedy placement, then SWAP insertion
/// (see the module docs). The topology's site count must equal the circuit
/// width.
///
/// When every multi-qudit gate is already nearest-neighbour under the
/// identity mapping (always true on all-to-all), the step returns no new op
/// list: the operations, and the frames the lowering recorded for them,
/// stay untouched. Otherwise it returns the routed op list even when it
/// inserted no SWAP, because the placement relabels the qudits.
pub(crate) fn route(circuit: &Circuit, topology: &Topology) -> (Step, RoutingSummary) {
    let width = circuit.width();
    let dim = circuit.dim();
    let legal_as_is = topology.is_all_to_all()
        || circuit
            .iter()
            .all(|op| pairs(&op.qudits()).all(|(a, b)| topology.is_adjacent(a, b)));
    if legal_as_is {
        let step = Step {
            ops: None,
            detail: "already nearest-neighbour, 0 SWAPs".to_string(),
        };
        return (step, RoutingSummary::identity(width));
    }
    let dist = topology.all_distances();

    // Interaction graph: how often each logical pair interacts.
    let mut weight = vec![vec![0usize; width]; width];
    for op in circuit.iter() {
        let qs = op.qudits();
        for (a, b) in pairs(&qs) {
            weight[a][b] += 1;
            weight[b][a] += 1;
        }
    }
    let hotness: Vec<usize> = weight.iter().map(|row| row.iter().sum()).collect();

    let placement = greedy_placement(topology, &dist, &weight, &hotness);
    let mut l2p = placement.clone();
    let mut p2l = invert(&l2p);

    // The flat sequence of logical interaction pairs, in op order, for the
    // lookahead heuristic; `pair_start[i]` is where op `i`'s pairs begin.
    let mut pair_seq: Vec<(usize, usize)> = Vec::new();
    let mut pair_start: Vec<usize> = Vec::with_capacity(circuit.len());
    for op in circuit.iter() {
        pair_start.push(pair_seq.len());
        pair_seq.extend(pairs(&op.qudits()));
    }

    let rswap = Gate::new("RSWAP", dim, 2, Gate::swap(dim).matrix().clone())
        .expect("the SWAP matrix is d²×d²");
    let mut out: Vec<Operation> = Vec::with_capacity(circuit.len());
    let mut inserted_swaps = 0usize;
    let mut unrouted = 0usize;

    for (i, op) in circuit.iter().enumerate() {
        let qs = op.qudits();
        if qs.len() == 2 {
            // Insert SWAPs until the endpoints are adjacent. Candidates
            // always move an endpoint strictly closer, so this terminates.
            while dist[l2p[qs[0]]][l2p[qs[1]]] > 1 {
                let (u, v) = best_swap(
                    topology,
                    &dist,
                    &l2p,
                    &p2l,
                    &pair_seq[pair_start[i]..],
                    (qs[0], qs[1]),
                );
                out.push(
                    Operation::new(rswap.clone(), Vec::new(), vec![u.min(v), u.max(v)])
                        .expect("swap sites are distinct and in range"),
                );
                inserted_swaps += 1;
                apply_swap(&mut l2p, &mut p2l, u, v);
            }
        } else if qs.len() > 2 && !pairs(&qs).all(|(a, b)| topology.is_adjacent(l2p[a], l2p[b])) {
            // A ≥3-qudit gate needs its whole support mutually adjacent — a
            // clique most topologies don't have. Pass it through remapped
            // and let the caller's statistics surface the count; lowering
            // first (the `Physical` levels) avoids this entirely.
            unrouted += 1;
        }
        out.push(remap_op(op, &l2p));
    }

    let step = Step {
        ops: Some(out),
        detail: format!("{inserted_swaps} SWAP(s) inserted, {unrouted} unroutable op(s)"),
    };
    let summary = RoutingSummary {
        placement,
        final_mapping: l2p,
        inserted_swaps,
        unrouted,
    };
    (step, summary)
}

/// Greedy interaction-graph placement: logical qudits in decreasing-hotness
/// order each take the free site minimizing the distance-weighted
/// interaction cost to already-placed partners plus a quality penalty
/// (hot qudits avoid high-error sites). Ties break toward central sites,
/// then the lowest site index, so placement is deterministic.
fn greedy_placement(
    topology: &Topology,
    dist: &[Vec<usize>],
    weight: &[Vec<usize>],
    hotness: &[usize],
) -> Vec<usize> {
    let width = hotness.len();
    let mut order: Vec<usize> = (0..width).collect();
    order.sort_by_key(|&q| (std::cmp::Reverse(hotness[q]), q));

    let closeness: Vec<usize> = (0..width).map(|s| dist[s].iter().sum()).collect();
    // Mean incident edge-quality excess per site: hot qudits are steered
    // away from sites whose links are poor, not just from poor sites.
    let edge_excess: Vec<f64> = (0..width)
        .map(|s| {
            let neighbours = topology.neighbors(s);
            if neighbours.is_empty() {
                return 0.0;
            }
            let total: f64 = neighbours
                .iter()
                .map(|&t| topology.edge_quality_between(s, t))
                .sum();
            total / neighbours.len() as f64 - 1.0
        })
        .collect();
    let mut l2p = vec![usize::MAX; width];
    let mut used = vec![false; width];
    for &q in &order {
        let mut best: Option<(f64, usize, usize)> = None;
        for s in (0..width).filter(|&s| !used[s]) {
            let interaction: f64 = (0..width)
                .filter(|&p| l2p[p] != usize::MAX)
                .map(|p| (weight[q][p] * dist[s][l2p[p]]) as f64)
                .sum();
            let quality_penalty = hotness[q] as f64 * (topology.quality(s) - 1.0 + edge_excess[s]);
            let key = (interaction + quality_penalty, closeness[s], s);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, site) = best.expect("free site exists: one per logical qudit");
        l2p[q] = site;
        used[site] = true;
    }
    l2p
}

/// Picks the SWAP (as a pair of adjacent sites) that moves the current
/// interaction's endpoints closer with the best decayed-lookahead score
/// over the upcoming interaction pairs. Deterministic: score ties break on
/// the site pair.
fn best_swap(
    topology: &Topology,
    dist: &[Vec<usize>],
    l2p: &[usize],
    p2l: &[usize],
    upcoming: &[(usize, usize)],
    current: (usize, usize),
) -> (usize, usize) {
    let (sa, sb) = (l2p[current.0], l2p[current.1]);
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for &x in topology.neighbors(sa) {
        if dist[x][sb] < dist[sa][sb] {
            candidates.push((sa, x));
        }
    }
    for &y in topology.neighbors(sb) {
        if dist[sa][y] < dist[sa][sb] {
            candidates.push((sb, y));
        }
    }

    // Score key: (decayed lookahead distance, low site, high site).
    type ScoreKey = (f64, usize, usize);
    let mut best: Option<(ScoreKey, (usize, usize))> = None;
    for &(u, v) in &candidates {
        let mut trial_l2p = l2p.to_vec();
        let (lu, lv) = (p2l[u], p2l[v]);
        trial_l2p[lu] = v;
        trial_l2p[lv] = u;
        let mut score = 0.0;
        let mut decay = 1.0;
        for &(a, b) in upcoming.iter().take(LOOKAHEAD_WINDOW) {
            score += decay * dist[trial_l2p[a]][trial_l2p[b]] as f64;
            decay *= LOOKAHEAD_DECAY;
        }
        // The SWAP itself executes on edge (u, v): a poor edge costs extra,
        // so routing prefers an equally short path over good links.
        score += topology.edge_quality_between(u, v) - 1.0;
        let key = (score, u.min(v), u.max(v));
        if best.is_none_or(|(b, _)| key < b) {
            best = Some((key, (u, v)));
        }
    }
    best.expect("a distance-reducing neighbour always exists on a shortest path")
        .1
}

/// Swaps the logical contents of sites `u` and `v` in both mapping tables.
fn apply_swap(l2p: &mut [usize], p2l: &mut [usize], u: usize, v: usize) {
    let (lu, lv) = (p2l[u], p2l[v]);
    l2p[lu] = v;
    l2p[lv] = u;
    p2l.swap(u, v);
}

/// The inverse of a permutation of `0..map.len()`: `invert(map)[map[q]]`
/// is `q`. Inverting a logical→site mapping gives the site→logical one.
pub fn invert(map: &[usize]) -> Vec<usize> {
    let mut inverse = vec![usize::MAX; map.len()];
    for (q, &s) in map.iter().enumerate() {
        inverse[s] = q;
    }
    inverse
}

/// The transpositions that move the state of qudit `q` to position
/// `map[q]`, for a permutation `map` of `0..map.len()`: at most
/// `map.len() − 1` qudit pairs, to be swapped in order. This is the one
/// place that decomposes a routing permutation into SWAPs — the ideal
/// reference of a routed circuit ([`CompiledIr::reference_circuit`]) and
/// the executor's un-embedding of a routed density matrix both use it.
///
/// [`CompiledIr::reference_circuit`]: crate::passes::CompiledIr::reference_circuit
pub fn permutation_swaps(map: &[usize]) -> Vec<[usize; 2]> {
    let inverse = invert(map);
    // `location[q]`: where qudit q's state is now; `holds[s]`: whose state
    // position s holds now.
    let mut location: Vec<usize> = (0..map.len()).collect();
    let mut holds: Vec<usize> = (0..map.len()).collect();
    let mut swaps = Vec::new();
    for target in 0..map.len() {
        let wanted = inverse[target];
        let current = location[wanted];
        if current != target {
            swaps.push([target, current]);
            let displaced = holds[target];
            holds[target] = wanted;
            holds[current] = displaced;
            location[wanted] = target;
            location[displaced] = current;
        }
    }
    swaps
}

/// Rewrites one operation's wires through the current logical→site mapping.
fn remap_op(op: &Operation, l2p: &[usize]) -> Operation {
    let controls: Vec<Control> = op
        .controls()
        .iter()
        .map(|c| Control::new(l2p[c.qudit], c.level))
        .collect();
    let targets: Vec<usize> = op.targets().iter().map(|&t| l2p[t]).collect();
    Operation::new(op.gate().clone(), controls, targets)
        .expect("a bijective wire remap preserves operation validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{compile_with_topology, PassLevel};

    /// CX chain touching non-adjacent qudits on a line.
    fn long_range_circuit(width: usize) -> Circuit {
        let mut c = Circuit::new(2, width);
        c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[width - 1])
            .unwrap();
        c
    }

    /// Qudit 0 interacts with every other qudit — a star no degree-2
    /// topology can host without SWAPs.
    fn star_circuit(width: usize) -> Circuit {
        let mut c = Circuit::new(2, width);
        for t in 1..width {
            c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[t])
                .unwrap();
        }
        c
    }

    #[test]
    fn all_to_all_routing_is_an_op_list_identity() {
        let c = long_range_circuit(5);
        let topology = Topology::all_to_all(5).unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&topology));
        assert_eq!(ir.circuit(), &c);
        let summary = ir.routing().expect("summary recorded");
        assert!(summary.is_identity());
        assert_eq!(summary.inserted_swaps, 0);
    }

    #[test]
    fn nearest_neighbour_circuits_get_zero_swaps() {
        let mut c = Circuit::new(3, 4);
        for q in 0..3 {
            c.push_controlled(Gate::x(3), &[Control::on_one(q)], &[q + 1])
                .unwrap();
        }
        let topology = Topology::linear(4).unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&topology));
        assert_eq!(
            ir.circuit(),
            &c,
            "already-routable op list must be untouched"
        );
        assert_eq!(ir.routing().unwrap().inserted_swaps, 0);
    }

    #[test]
    fn long_range_interactions_get_swaps_on_a_line() {
        let c = star_circuit(5);
        let topology = Topology::linear(5).unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&topology));
        let summary = ir.routing().unwrap();
        assert!(summary.inserted_swaps > 0, "{summary:?}");
        let swaps = ir
            .circuit()
            .iter()
            .filter(|op| op.gate().name() == "RSWAP")
            .count();
        assert_eq!(swaps, summary.inserted_swaps);
        // Every multi-qudit op in the routed circuit is nearest-neighbour.
        for op in ir.circuit().iter() {
            let qs = op.qudits();
            for (a, b) in pairs(&qs) {
                assert!(topology.is_adjacent(a, b), "{op:?} not local");
            }
        }
        assert_eq!(
            ir.report().post.routed.unwrap().inserted_swaps,
            summary.inserted_swaps
        );
    }

    #[test]
    fn placement_prefers_high_quality_sites_for_hot_qudits() {
        // Qudits 0 and 1 interact heavily, and one 0↔2 gate forces full
        // routing (the identity mapping is not nearest-neighbour, so the
        // fast path cannot trigger). With the chain's centre site poisoned,
        // the hot qudits must both land on the good end sites.
        let mut c = Circuit::new(2, 3);
        for _ in 0..4 {
            c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[1])
                .unwrap();
        }
        c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[2])
            .unwrap();
        let bad_centre = Topology::linear(3)
            .unwrap()
            .with_site_quality(vec![1.0, 50.0, 1.0])
            .unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&bad_centre));
        let summary = ir.routing().unwrap();
        assert!(
            summary.placement[0] != 1 && summary.placement[1] != 1,
            "{summary:?}"
        );
    }

    #[test]
    fn placement_steers_hot_pairs_away_from_bad_edges() {
        // Qudits 0 and 1 interact heavily; one 0↔2 gate forces full routing
        // (identity mapping is not nearest-neighbour on the chain). With
        // edge (0,1) poisoned, the hot pair must land on the good (1,2)
        // link — without edge weights greedy placement puts it on (0,1).
        let mut c = Circuit::new(2, 3);
        for _ in 0..4 {
            c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[1])
                .unwrap();
        }
        c.push_controlled(Gate::x(2), &[Control::on_one(0)], &[2])
            .unwrap();
        let uniform = Topology::linear(3).unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&uniform));
        let placement = &ir.routing().unwrap().placement;
        let mut hot = [placement[0], placement[1]];
        hot.sort_unstable();
        assert_eq!(hot, [0, 1], "uniform baseline places the hot pair on (0,1)");

        let bad_first_edge = Topology::linear(3)
            .unwrap()
            .with_edge_quality(vec![50.0, 1.0])
            .unwrap();
        let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(&bad_first_edge));
        let placement = &ir.routing().unwrap().placement;
        let mut hot = [placement[0], placement[1]];
        hot.sort_unstable();
        assert_eq!(hot, [1, 2], "hot pair must avoid the poisoned (0,1) edge");
    }

    #[test]
    fn swap_insertion_avoids_poisoned_edges_when_paths_tie() {
        // On a ring two equally short SWAP routes exist between opposite
        // sites; poisoning one side's edges must push the router to the
        // other. Compare total charged edge quality of the inserted SWAPs.
        let c = star_circuit(6);
        let ring = Topology::ring(6).unwrap();
        // Edges of ring(6): (0,1),(1,2),(2,3),(3,4),(4,5),(0,5).
        let weights = vec![1.0, 8.0, 8.0, 1.0, 1.0, 1.0];
        let weighted = ring.clone().with_edge_quality(weights).unwrap();
        let charged = |t: &Topology| -> f64 {
            let ir = compile_with_topology(&c, PassLevel::NoisePreserving, Some(t));
            ir.circuit()
                .iter()
                .filter(|op| op.gate().name() == "RSWAP")
                .map(|op| {
                    let qs = op.qudits();
                    weighted.edge_quality_between(qs[0], qs[1])
                })
                .sum()
        };
        assert!(
            charged(&weighted) < charged(&ring),
            "edge-aware routing must charge less poisoned-edge weight"
        );
    }

    #[test]
    fn permutation_swaps_realise_every_permutation_of_four() {
        // Every map of four positions into four, keeping the 24 bijections.
        let all: Vec<Vec<usize>> = (0..256usize)
            .map(|code| (0..4).map(|q| (code >> (2 * q)) & 3).collect::<Vec<_>>())
            .filter(|map| (0..4).all(|p| map.contains(&p)))
            .collect();
        assert_eq!(all.len(), 24);
        for map in all {
            let swaps = permutation_swaps(&map);
            assert!(swaps.len() < map.len());
            // `holds[p]`: which qudit's state position p holds.
            let mut holds: Vec<usize> = (0..map.len()).collect();
            for [a, b] in swaps {
                assert_ne!(a, b);
                holds.swap(a, b);
            }
            for (q, &p) in map.iter().enumerate() {
                assert_eq!(holds[p], q, "map {map:?}");
            }
            assert_eq!(invert(&invert(&map)), map);
        }
    }
}
