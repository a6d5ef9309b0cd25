//! Every input the benchmark feeds the program, generated here from the
//! `--seed` argument alone, plus a digest of each so a changed input shows.

use std::collections::{HashMap, HashSet};

use greedy_spanner::serve::Query;
use greedy_spanner::update::{Update, UpdateBatch};
use spanner_graph::{VertexId, WeightedGraph};
use spanner_metric::EuclideanSpace;

use crate::rng::{Rng, Zipf};

/// FNV-1a over 64-bit words: a stable fingerprint of one input.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn graph_digest(g: &WeightedGraph) -> String {
    let mut d = Digest::new();
    d.word(g.num_vertices() as u64);
    for e in g.edges() {
        d.word(e.u.index() as u64);
        d.word(e.v.index() as u64);
        d.word(e.weight.to_bits());
    }
    d.hex()
}

/// A connected Erdős–Rényi graph: a random spanning tree (so the graph is
/// connected) plus every other pair independently, tuned to `mean_degree`.
/// Weights are uniform in `[1, 10)`.
pub fn er_graph(n: usize, mean_degree: f64, rng: &mut Rng) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for i in 1..n {
        let parent = order[rng.below(i)];
        g.add_edge(VertexId(order[i]), VertexId(parent), rng.range(1.0, 10.0));
    }
    let extra = (mean_degree * n as f64 / 2.0 - (n - 1) as f64).max(0.0);
    let p = extra / (n as f64 * (n as f64 - 1.0) / 2.0);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.unit() < p && !g.has_edge(VertexId(u), VertexId(v)) {
                g.add_edge(VertexId(u), VertexId(v), rng.range(1.0, 10.0));
            }
        }
    }
    g
}

/// A road-like graph: a `side × side` grid of jittered points joined to
/// their right and lower neighbours at Euclidean length, plus `n / 50`
/// "highways" between random vertex pairs at half their Euclidean length.
/// Vertex `i * side + j` sits near grid point `(i, j)`.
pub fn road_graph(side: usize, rng: &mut Rng) -> WeightedGraph {
    let n = side * side;
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|v| {
            let (i, j) = ((v / side) as f64, (v % side) as f64);
            (i + rng.range(-0.3, 0.3), j + rng.range(-0.3, 0.3))
        })
        .collect();
    let len =
        |a: usize, b: usize| ((pos[a].0 - pos[b].0).powi(2) + (pos[a].1 - pos[b].1).powi(2)).sqrt();
    let mut g = WeightedGraph::new(n);
    for v in 0..n {
        let (i, j) = (v / side, v % side);
        if j + 1 < side {
            g.add_edge(VertexId(v), VertexId(v + 1), len(v, v + 1));
        }
        if i + 1 < side {
            g.add_edge(VertexId(v), VertexId(v + side), len(v, v + side));
        }
    }
    for _ in 0..n / 50 {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b && !g.has_edge(VertexId(a), VertexId(b)) {
            g.add_edge(VertexId(a), VertexId(b), 0.5 * len(a, b));
        }
    }
    g
}

/// `n` points uniform in the unit square.
pub fn points(n: usize, rng: &mut Rng) -> EuclideanSpace<2> {
    EuclideanSpace::from_coords((0..n).map(|_| [rng.unit(), rng.unit()]))
}

pub fn points_digest(points: &EuclideanSpace<2>) -> String {
    let mut d = Digest::new();
    for p in points.points() {
        for c in p.coords() {
            d.word(c.to_bits());
        }
    }
    d.hex()
}

pub fn queries_digest<'a>(queries: impl IntoIterator<Item = &'a Query>) -> String {
    let mut d = Digest::new();
    for q in queries {
        let (tag, s, t, x) = match *q {
            Query::Distance {
                source,
                target,
                bound,
            } => (0, source, target.index(), bound.to_bits()),
            Query::Path { source, target } => (1, source, target.index(), 0),
            Query::KNearest { source, k } => (2, source, k, 0),
            Query::Ball { source, radius } => (3, source, 0, radius.to_bits()),
            Query::StretchAudit { source, target } => (4, source, target.index(), 0),
        };
        d.word(tag);
        d.word(s.index() as u64);
        d.word(t as u64);
        d.word(x);
    }
    d.hex()
}

pub fn updates_digest(batches: &[UpdateBatch]) -> String {
    let mut d = Digest::new();
    for batch in batches {
        d.word(batch.len() as u64);
        for update in batch.updates() {
            let (tag, u, v, w) = match *update {
                Update::Insert { u, v, weight } => (0, u, v, weight.to_bits()),
                Update::Delete { u, v } => (1, u, v, 0),
                Update::Reweight { u, v, weight } => (2, u, v, weight.to_bits()),
            };
            d.word(tag);
            d.word(u.index() as u64);
            d.word(v.index() as u64);
            d.word(w);
        }
    }
    d.hex()
}

/// One request of the open-loop schedule: when it is due (seconds from the
/// start of its phase) and its single query.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub due: f64,
    pub query: Query,
}

/// Zipf exponent of the sources of [`mixed_query`].
pub const MIXED_ZIPF_S: f64 = 1.1;

/// Query `i` of a stream in the repository's documented mixed read profile
/// (`greedy_spanner::workload::QueryWorkload::mixed` without stretch audits,
/// at its default unbounded distance bound), regenerated here so a change
/// to the program cannot change the traffic: percent slot `i % 100` makes
/// it one of 65 distance queries, 15 paths, 10 `k`-nearest with
/// `k = 1 + i % 16` and 10 balls of radius `i % 8`. Sources are Zipf-skewed
/// with exponent [`MIXED_ZIPF_S`]; targets are uniform over the other
/// vertices.
pub fn mixed_query(i: usize, n: usize, zipf: &Zipf, rng: &mut Rng) -> Query {
    let s = zipf.sample(rng);
    let mut t = rng.below(n - 1);
    if t >= s {
        t += 1;
    }
    let (s, t) = (VertexId(s), VertexId(t));
    match i % 100 {
        60..=74 => Query::path(s, t),
        75..=84 => Query::k_nearest(s, 1 + i % 16),
        85..=94 => Query::ball(s, (i % 8) as f64),
        _ => Query::distance(s, t, f64::INFINITY),
    }
}

/// Poisson arrivals at `rate` per second for `seconds`, request `i`
/// carrying [`mixed_query`] `i` over `n` vertices.
pub fn schedule(rate: f64, seconds: f64, n: usize, zipf: &Zipf, rng: &mut Rng) -> Vec<Request> {
    let mut out = Vec::new();
    let mut due = rng.exp(1.0 / rate);
    while due < seconds {
        out.push(Request {
            due,
            query: mixed_query(out.len(), n, zipf, rng),
        });
        due += rng.exp(1.0 / rate);
    }
    out
}

/// The edge set of the evolving original graph, so generated deletions and
/// reweights always name an existing edge and insertions a missing one.
struct EdgeSet {
    list: Vec<(usize, usize)>,
    index: HashMap<(usize, usize), usize>,
}

impl EdgeSet {
    fn of(g: &WeightedGraph) -> Self {
        let mut set = EdgeSet {
            list: Vec::new(),
            index: HashMap::new(),
        };
        for e in g.edges() {
            set.insert(e.u.index(), e.v.index());
        }
        set
    }

    fn key(u: usize, v: usize) -> (usize, usize) {
        (u.min(v), u.max(v))
    }

    fn insert(&mut self, u: usize, v: usize) -> bool {
        let key = Self::key(u, v);
        if u == v || self.index.contains_key(&key) {
            return false;
        }
        self.index.insert(key, self.list.len());
        self.list.push(key);
        true
    }

    fn remove(&mut self, u: usize, v: usize) {
        let i = self
            .index
            .remove(&Self::key(u, v))
            .expect("edge is present");
        self.list.swap_remove(i);
        if i < self.list.len() {
            self.index.insert(self.list[i], i);
        }
    }

    fn random(&self, rng: &mut Rng) -> (usize, usize) {
        self.list[rng.below(self.list.len())]
    }
}

/// `count` update batches of `size` updates against `g`: about 45%
/// insertions of new edges, 45% deletions and 10% reweights of existing
/// ones, weights uniform in `[1, 10)`, so the graph keeps its size. No batch touches one edge twice, so
/// every update is valid whatever order the batch is applied in.
pub fn update_stream(
    g: &WeightedGraph,
    count: usize,
    size: usize,
    rng: &mut Rng,
) -> Vec<UpdateBatch> {
    let n = g.num_vertices();
    let mut edges = EdgeSet::of(g);
    (0..count)
        .map(|_| {
            let mut batch = UpdateBatch::new();
            let mut touched = HashSet::new();
            while batch.len() < size {
                let kind = rng.unit();
                if kind < 0.45 {
                    let (u, v) = (rng.below(n), rng.below(n));
                    if edges.insert(u, v) {
                        touched.insert(EdgeSet::key(u, v));
                        batch.push(Update::Insert {
                            u: VertexId(u),
                            v: VertexId(v),
                            weight: rng.range(1.0, 10.0),
                        });
                    }
                    continue;
                }
                let (u, v) = edges.random(rng);
                if !touched.insert((u, v)) {
                    continue;
                }
                if kind < 0.9 {
                    edges.remove(u, v);
                    batch.push(Update::Delete {
                        u: VertexId(u),
                        v: VertexId(v),
                    });
                } else {
                    batch.push(Update::Reweight {
                        u: VertexId(u),
                        v: VertexId(v),
                        weight: rng.range(1.0, 10.0),
                    });
                }
            }
            batch
        })
        .collect()
}
