//! Property tests pinning the engine's binary-heap frontier (and the
//! landmark-pruned search) to the reference free functions: the engine must
//! produce **bit-identical** distances, paths, balls, and tie-breaks — on
//! Erdős–Rényi, dense, and high-weight-spread graphs, including graphs with
//! tombstoned edges and live overlay insertions.

use proptest::prelude::*;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spanner_graph::dijkstra::{ball, bounded_distance, shortest_path_tree};
use spanner_graph::{CsrGraph, DijkstraEngine, EdgeId, Landmarks, VertexId, WeightedGraph};

/// Graph families whose weight distributions stress the search differently:
/// sparse ER (short frontiers), dense (many near-equal keys queued at once),
/// and high-spread (weights across three orders of magnitude, so the batched
/// kernel's min-weight cohort slack is tiny).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..28, 0u64..1000, 0usize..3).prop_map(|(n, seed, family)| {
        let mut rng = SmallRng::seed_from_u64(seed ^ (family as u64) << 32);
        let (p, lo, hi) = match family {
            0 => (0.15, 0.5, 6.0),   // ER
            1 => (0.6, 1.0, 2.0),    // dense, narrow weights
            _ => (0.25, 0.01, 10.0), // high weight spread
        };
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p) {
                    g.add_edge(VertexId(u), VertexId(v), rng.gen_range(lo..hi));
                }
            }
        }
        g
    })
}

/// A pre-sized engine, so the zero-allocation contract is co-tested for
/// free.
fn engine(n: usize, m: usize) -> DijkstraEngine {
    DijkstraEngine::with_capacity_for(n, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bounded distances: the engine and the reference free function agree
    /// exactly for arbitrary (source, target, bound) triples.
    #[test]
    fn bounded_distances_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut e = engine(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            prop_assert_eq!(
                e.bounded_distance(&csr, s, t, bound),
                bounded_distance(&g, s, t, bound),
                "s={} t={} bound={}", s, t, bound
            );
        }
        prop_assert_eq!(e.stats().reuse_hits, e.stats().queries);
    }

    /// Balls: membership AND order (including every equal-distance
    /// tie-break) match the reference. Equal distances settle in ascending
    /// vertex-id order.
    #[test]
    fn balls_and_ties_agree_across_queues(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut e = engine(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..8 {
            let s = VertexId(rng.gen_range(0..n));
            let radius = rng.gen_range(0.0..15.0);
            let via_engine = e.ball(&csr, s, radius).to_vec();
            prop_assert_eq!(&via_engine[..], &ball(&g, s, radius)[..], "s={} radius={}", s, radius);
            for w in via_engine.windows(2) {
                prop_assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "ties must be in ascending vertex-id order"
                );
            }
        }
    }

    /// Unit-weight graphs maximize exact distance ties (every vertex at hop
    /// distance d ties); ball order and k-nearest truncation must still
    /// match the reference.
    #[test]
    fn unit_weight_tie_storms_are_deterministic(n in 3usize..24, seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.4) {
                    g.add_edge(VertexId(u), VertexId(v), 1.0);
                }
            }
        }
        let csr = CsrGraph::from(&g);
        let mut e = engine(n, g.num_edges());
        let s = VertexId(rng.gen_range(0..n));
        let engine_ball = e.ball(&csr, s, n as f64).to_vec();
        prop_assert_eq!(&engine_ball[..], &ball(&g, s, n as f64)[..]);
        // k_nearest truncation at a tie boundary picks the same vertices.
        let tree = e.shortest_path_tree(&csr, s).to_owned_tree();
        for k in 0..=engine_ball.len() {
            prop_assert_eq!(&tree.k_nearest(k)[..], &engine_ball[..k]);
        }
        prop_assert_eq!(tree.members(), &engine_ball[..]);
    }

    /// Shortest-path trees and their paths match the reference after the
    /// engine has been warmed by bounded queries — i.e. workspace reuse
    /// across query kinds never corrupts a later answer.
    #[test]
    fn trees_agree_after_mixed_policy_streams(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let mut e = engine(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        // Warm the engine with bounded queries first.
        for _ in 0..5 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.1..10.0);
            prop_assert_eq!(
                e.bounded_distance(&csr, s, t, bound),
                bounded_distance(&g, s, t, bound)
            );
        }
        let s = VertexId(rng.gen_range(0..n));
        let reference = shortest_path_tree(&g, s);
        let tree = e.shortest_path_tree(&csr, s).to_owned_tree();
        for v in 0..n {
            prop_assert_eq!(tree.distance(VertexId(v)), reference.distance(VertexId(v)));
            prop_assert_eq!(tree.path_to(VertexId(v)), reference.path_to(VertexId(v)));
        }
    }

    /// Landmark-pruned bounded distances equal the reference for every
    /// (source, target, bound), unbounded queries included.
    #[test]
    fn landmark_pruning_is_answer_invariant(g in arb_graph(), seed in 0u64..1000) {
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let lm = Landmarks::build_degree_ranked(&csr, 3.min(n));
        let mut e = engine(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = if rng.gen_bool(0.15) {
                f64::INFINITY
            } else {
                rng.gen_range(0.0..20.0)
            };
            let plain = e.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(plain, bounded_distance(&g, s, t, bound));
            prop_assert_eq!(
                plain,
                e.bounded_distance_landmarked(&csr, &lm, s, t, bound),
                "ALT diverged: s={} t={} bound={}", s, t, bound
            );
        }
    }

    /// The engine agrees with the reference while the CSR carries tombstoned
    /// edges and overlay insertions: delete/append churn between query
    /// rounds, checking against a fresh build of the surviving edge set each
    /// round.
    #[test]
    fn queues_agree_under_tombstones_and_overlays(g in arb_graph(), seed in 0u64..500) {
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut csr = CsrGraph::from(&g);
        let mut e = engine(n, g.num_edges() + 24);
        let mut surviving: Vec<(VertexId, VertexId, f64)> =
            g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
        let mut ids: Vec<usize> = (0..g.num_edges()).collect();
        let mut next_weight = 0.13f64;
        for step in 0..16 {
            if step % 2 == 0 && !ids.is_empty() {
                let pick = rng.gen_range(0..ids.len());
                let id = ids.swap_remove(pick);
                surviving.swap_remove(pick);
                csr.remove_edge(EdgeId(id)).unwrap();
            } else {
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n.max(2) - 1);
                if v >= u { v += 1; }
                next_weight += 0.41;
                let id = csr.append_edge(VertexId(u), VertexId(v), next_weight);
                ids.push(id.index());
                surviving.push((VertexId(u), VertexId(v), next_weight));
            }
            let reference = {
                let mut fresh = WeightedGraph::new(n);
                for &(u, v, w) in &surviving {
                    fresh.add_edge(u, v, w);
                }
                fresh
            };
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..25.0);
            prop_assert_eq!(e.bounded_distance(&csr, s, t, bound),
                bounded_distance(&reference, s, t, bound),
                "step {}: engine diverged from fresh rebuild", step);
            let radius = rng.gen_range(0.0..12.0);
            prop_assert_eq!(
                e.ball(&csr, s, radius).to_vec(),
                ball(&reference, s, radius),
                "step {}: ball divergence under churn", step
            );
        }
    }

    /// Reordering the CSR relabels answers but never changes them: a query
    /// in external-id space answered through the permutation equals the
    /// reference on the original graph.
    #[test]
    fn reorder_is_answer_preserving_across_queues(g in arb_graph(), seed in 0u64..500) {
        use spanner_graph::VertexPerm;
        let n = g.num_vertices();
        let csr = CsrGraph::from(&g);
        let perm = VertexPerm::degree_sorted(&csr);
        let reordered = csr.reorder(&perm);
        let mut e = engine(n, g.num_edges());
        let mut reordered_engine = engine(n, g.num_edges());
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..12 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let bound = rng.gen_range(0.0..20.0);
            let original = e.bounded_distance(&csr, s, t, bound);
            prop_assert_eq!(original, bounded_distance(&g, s, t, bound));
            let translated = reordered_engine.bounded_distance(
                &reordered,
                perm.to_internal(s),
                perm.to_internal(t),
                bound,
            );
            prop_assert_eq!(original, translated, "reorder changed an answer");
        }
    }
}
