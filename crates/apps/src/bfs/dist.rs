//! Distributed level-synchronous BFS: partitioning, the pure per-level
//! expansion/apply steps (the transport-independent algorithm core), and
//! the per-level counts of a whole traversal.

use crate::bfs::csr::Csr;
use crate::bfs::seq::{self, BfsTree};

/// 1-D contiguous vertex partition over `np` ranks.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Total vertices.
    pub n: usize,
    /// Ranks.
    pub np: usize,
}

impl Partition {
    /// Vertices per rank (last rank may own fewer).
    pub fn chunk(&self) -> usize {
        self.n.div_ceil(self.np)
    }

    /// The rank owning vertex `v`.
    pub fn owner(&self, v: u32) -> usize {
        (v as usize / self.chunk()).min(self.np - 1)
    }

    /// The vertex range `[lo, hi)` owned by `rank`.
    pub fn range(&self, rank: usize) -> (u32, u32) {
        let lo = (rank * self.chunk()).min(self.n);
        let hi = ((rank + 1) * self.chunk()).min(self.n);
        (lo as u32, hi as u32)
    }

    /// Number of vertices owned by `rank`.
    pub fn owned(&self, rank: usize) -> usize {
        let (lo, hi) = self.range(rank);
        (hi - lo) as usize
    }
}

/// Per-rank BFS state.
#[derive(Debug, Clone)]
pub struct RankState {
    /// This rank.
    pub rank: usize,
    /// The partition.
    pub part: Partition,
    /// First owned vertex: `level` and `parent` are indexed by `v - lo`.
    pub lo: u32,
    /// Levels of owned vertices (−1 = unreached).
    pub level: Vec<i32>,
    /// Parents of owned vertices.
    pub parent: Vec<i64>,
    /// Current frontier (owned vertices discovered last level).
    pub frontier: Vec<u32>,
    /// Per-level dedup bitmap for remote candidates.
    sent: Vec<u64>,
}

/// One level's expansion output.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Candidate `(vertex, parent)` pairs per destination rank.
    pub to_rank: Vec<Vec<(u32, u32)>>,
    /// Directed edges scanned (the kernel-cost driver).
    pub edges_scanned: u64,
}

impl RankState {
    /// Fresh state; seeds the frontier with `root` if owned.
    pub fn new(rank: usize, part: Partition, root: u32) -> Self {
        let lo = part.range(rank).0;
        let owned = part.owned(rank);
        let mut s = RankState {
            rank,
            part,
            lo,
            level: vec![-1; owned],
            parent: vec![-1; owned],
            frontier: Vec::new(),
            sent: vec![0; part.n.div_ceil(64)],
        };
        if part.owner(root) == rank {
            s.level[(root - lo) as usize] = 0;
            s.parent[(root - lo) as usize] = root as i64;
            s.frontier.push(root);
        }
        s
    }

    fn sent_test_set(&mut self, v: u32) -> bool {
        let (w, b) = (v as usize / 64, v as usize % 64);
        let was = self.sent[w] & (1 << b) != 0;
        self.sent[w] |= 1 << b;
        was
    }

    /// Mark owned vertex `v` reached from `p` at `level`, if it is not
    /// yet; returns whether it was fresh.
    fn reach(&mut self, v: u32, p: u32, level: i32) -> bool {
        let i = (v - self.lo) as usize;
        let fresh = self.level[i] < 0;
        if fresh {
            self.level[i] = level;
            self.parent[i] = p as i64;
        }
        fresh
    }

    /// Scan the current frontier: local discoveries are applied on the
    /// spot (they join the *next* frontier later via `apply`), remote
    /// candidates are binned per owner rank, deduplicated per level (the
    /// sort-unique pass of the paper's multi-GPU BFS \[15\]).
    pub fn expand(&mut self, g: &Csr, next_level: i32) -> Expansion {
        let np = self.part.np;
        let mut to_rank: Vec<Vec<(u32, u32)>> = (0..np).map(|_| Vec::new()).collect();
        let mut edges = 0u64;
        for w in self.sent.iter_mut() {
            *w = 0;
        }
        let frontier = std::mem::take(&mut self.frontier);
        let mut local_new = Vec::new();
        for &u in &frontier {
            edges += g.degree(u);
            for &v in g.neighbors(u) {
                let owner = self.part.owner(v);
                if owner == self.rank {
                    if self.reach(v, u, next_level) {
                        local_new.push(v);
                    }
                } else if !self.sent_test_set(v) {
                    to_rank[owner].push((v, u));
                }
            }
        }
        // Local discoveries seed the next frontier immediately.
        self.frontier = local_new;
        Expansion {
            to_rank,
            edges_scanned: edges,
        }
    }

    /// Apply candidates received from other ranks for `next_level`;
    /// returns how many were fresh (they join the next frontier).
    pub fn apply(&mut self, pairs: &[(u32, u32)], next_level: i32) -> usize {
        let mut fresh = 0;
        for &(v, p) in pairs {
            debug_assert_eq!(self.part.owner(v), self.rank);
            if self.reach(v, p, next_level) {
                self.frontier.push(v);
                fresh += 1;
            }
        }
        fresh
    }
}

/// One level of a [`Traversal`].
#[derive(Debug, Clone)]
pub struct LevelCounts {
    /// Directed edges each rank scans.
    pub edges_scanned: Vec<u64>,
    /// Candidate pairs rank `src` sends rank `dst`, at `[src][dst]`.
    pub pairs: Vec<Vec<u64>>,
    /// Each rank's frontier length after `apply`.
    pub frontier: Vec<u64>,
}

/// A level-synchronous BFS of one `(graph, np, root)` with a perfect
/// transport: what each level costs, and the tree.
///
/// The counts depend only on which vertices each level reaches, not on
/// which parent wins, so every transport that runs the same levels sees
/// the same counts, in whatever order its messages arrive.
#[derive(Debug, Clone)]
pub struct Traversal {
    /// Every level run, the final empty round included.
    pub levels: Vec<LevelCounts>,
    /// The merged tree, each rank applying candidates in source-rank
    /// order.
    pub tree: BfsTree,
    /// Undirected edges of the traversed component.
    pub traversed_edges: u64,
}

impl Traversal {
    /// Traverse `g` from `root` over the ranks of `part`.
    pub fn build(g: &Csr, part: Partition, root: u32) -> Self {
        let mut ranks: Vec<RankState> = (0..part.np)
            .map(|r| RankState::new(r, part, root))
            .collect();
        let mut levels = Vec::new();
        loop {
            let next = levels.len() as i32 + 1;
            let frontier_total: usize = ranks.iter().map(|r| r.frontier.len()).sum();
            let exps: Vec<Expansion> = ranks.iter_mut().map(|r| r.expand(g, next)).collect();
            for (dst, r) in ranks.iter_mut().enumerate() {
                for e in &exps {
                    r.apply(&e.to_rank[dst], next);
                }
            }
            levels.push(LevelCounts {
                edges_scanned: exps.iter().map(|e| e.edges_scanned).collect(),
                pairs: exps
                    .iter()
                    .map(|e| e.to_rank.iter().map(|p| p.len() as u64).collect())
                    .collect(),
                frontier: ranks.iter().map(|r| r.frontier.len() as u64).collect(),
            });
            if frontier_total == 0 {
                break;
            }
            assert!(levels.len() < 1000, "runaway");
        }
        let mut tree = BfsTree {
            level: vec![-1; part.n],
            parent: vec![-1; part.n],
        };
        for r in &ranks {
            let lo = r.lo as usize;
            tree.level[lo..lo + r.level.len()].copy_from_slice(&r.level);
            tree.parent[lo..lo + r.parent.len()].copy_from_slice(&r.parent);
        }
        let traversed_edges = seq::traversed_edges(g, &tree);
        Traversal {
            levels,
            tree,
            traversed_edges,
        }
    }

    /// The longest candidate list any rank sends another in one level
    /// (at least 1): what an exchange slot must hold.
    pub fn max_pairs(&self) -> u64 {
        self.levels
            .iter()
            .flat_map(|l| l.pairs.iter().flatten())
            .fold(1, |m, &p| m.max(p))
    }
}

/// Serialize candidates with the frontier-size header (wire format:
/// `[u32 own_frontier_len][(u32 v)(u32 parent)]*`).
pub fn encode(own_frontier: u32, pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + pairs.len() * 8);
    out.extend_from_slice(&own_frontier.to_le_bytes());
    for &(v, p) in pairs {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// Inverse of [`encode`].
pub fn decode(bytes: &[u8]) -> (u32, Vec<(u32, u32)>) {
    assert!(bytes.len() >= 4 && (bytes.len() - 4).is_multiple_of(8));
    let header = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let pairs = bytes[4..]
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect();
    (header, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::rmat;

    #[test]
    fn partition_covers_all() {
        let p = Partition { n: 1000, np: 3 };
        let mut seen = 0;
        for r in 0..3 {
            let (lo, hi) = p.range(r);
            for v in lo..hi {
                assert_eq!(p.owner(v), r);
                seen += 1;
            }
        }
        assert_eq!(seen, 1000);
        assert_eq!(p.owned(0) + p.owned(1) + p.owned(2), 1000);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pairs = vec![(1u32, 2u32), (300, 400), (u32::MAX, 0)];
        let bytes = encode(77, &pairs);
        let (h, back) = decode(&bytes);
        assert_eq!(h, 77);
        assert_eq!(back, pairs);
        assert_eq!(decode(&encode(5, &[])), (5, vec![]));
    }

    #[test]
    fn distributed_equals_sequential_reference() {
        let edges = rmat::generate(10, 16, 9);
        let g = Csr::build(1 << 10, &edges);
        let reference = seq::bfs(&g, 3);
        for np in [1, 2, 4, 7] {
            let tree = Traversal::build(&g, Partition { n: g.n(), np }, 3).tree;
            seq::validate(&g, 3, &tree, &reference).unwrap_or_else(|e| panic!("np={np}: {e}"));
        }
    }
}
