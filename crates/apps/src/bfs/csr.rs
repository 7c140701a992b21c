//! Compressed sparse row adjacency.

/// An undirected graph in CSR form: every input edge is stored in both
//  directions; self-loops dropped; parallel edges deduplicated.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u64>,
    adjacency: Vec<u32>,
    undirected_edges: u64,
}

impl Csr {
    /// Build from an edge list over `n` vertices.
    pub fn build(n: usize, edges: &[(u32, u32)]) -> Self {
        // Counting sort into rows, both directions: count row lengths
        // into `offsets[i + 1]`, prefix-sum them into row starts, then
        // scatter with `offsets[i]` as row i's cursor. That leaves
        // `offsets[i]` at row i's end.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in edges {
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        for &(u, v) in edges {
            if u != v {
                adjacency[offsets[u as usize] as usize] = v;
                offsets[u as usize] += 1;
                adjacency[offsets[v as usize] as usize] = u;
                offsets[v as usize] += 1;
            }
        }
        // Sort and dedup each row, compacting it into the same buffer:
        // the write cursor `w` never passes the read position, so a row
        // is read before anything is written over it.
        let mut w = 0usize;
        let mut start = 0usize;
        for off in &mut offsets[..n] {
            let end = *off as usize;
            *off = w as u64;
            adjacency[start..end].sort_unstable();
            let row = w;
            for r in start..end {
                let x = adjacency[r];
                if w == row || adjacency[w - 1] != x {
                    adjacency[w] = x;
                    w += 1;
                }
            }
            start = end;
        }
        offsets[n] = w as u64;
        adjacency.truncate(w);
        adjacency.shrink_to_fit();
        Csr {
            offsets,
            adjacency,
            undirected_edges: w as u64 / 2,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct undirected edges (after cleanup).
    pub fn undirected_edges(&self) -> u64 {
        self.undirected_edges
    }

    /// Neighbours of `v`, sorted ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// True when `(u, v)` is an edge (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-buffer build [`Csr::build`] replaced: rows sorted in the
    /// scatter buffer, deduplicated into a second one.
    fn build_two_buffers(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut deg = vec![0u64; n];
        for &(u, v) in edges {
            if u != v {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            if u != v {
                adjacency[cursor[u as usize] as usize] = v;
                cursor[u as usize] += 1;
                adjacency[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        let mut out_adj = Vec::with_capacity(adjacency.len());
        let mut out_off = vec![0u64; n + 1];
        for i in 0..n {
            let row = &mut adjacency[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            let before = out_adj.len();
            let mut last = None;
            for &x in row.iter() {
                if Some(x) != last {
                    out_adj.push(x);
                    last = Some(x);
                }
            }
            out_off[i + 1] = out_off[i] + (out_adj.len() - before) as u64;
        }
        let undirected_edges = out_off[n] / 2;
        Csr {
            offsets: out_off,
            adjacency: out_adj,
            undirected_edges,
        }
    }

    fn assert_same(n: usize, edges: &[(u32, u32)]) {
        let (g, want) = (Csr::build(n, edges), build_two_buffers(n, edges));
        assert_eq!(g.n(), want.n());
        assert_eq!(g.undirected_edges(), want.undirected_edges());
        for v in 0..n as u32 {
            assert_eq!(g.neighbors(v), want.neighbors(v), "row {v}");
            assert_eq!(g.degree(v), want.degree(v), "degree {v}");
        }
        assert_eq!((&g.offsets, &g.adjacency), (&want.offsets, &want.adjacency));
    }

    #[test]
    fn in_place_compaction_matches_the_two_buffer_build() {
        for (scale, seed, permute) in [
            (8, 5, true),
            (10, 500, false),
            (12, 3, true),
            (14, 499, false),
        ] {
            let edges = crate::bfs::rmat::generate_with(scale, 16, seed, permute);
            assert_same(1 << scale, &edges);
        }
        // Self-loops, duplicates in both directions, empty rows, and a
        // row made only of self-loops.
        let hand = [
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 1),
            (2, 2),
            (2, 2),
            (3, 1),
            (1, 3),
            (5, 3),
            (3, 5),
            (5, 5),
            (6, 6),
            (5, 0),
            (0, 5),
        ];
        assert_same(8, &hand);
        assert_same(3, &[]);
        assert_same(1, &[(0, 0), (0, 0)]);
    }

    #[test]
    fn builds_undirected_deduped() {
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 2), (3, 1)];
        let g = Csr::build(4, &edges);
        assert_eq!(g.n(), 4);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1], "self-loop dropped");
        assert_eq!(g.undirected_edges(), 3);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn symmetry() {
        let edges = crate::bfs::rmat::generate(8, 8, 5);
        let g = Csr::build(256, &edges);
        for u in 0..256u32 {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric {u}-{v}");
            }
        }
    }

    #[test]
    fn isolated_vertices_ok() {
        let g = Csr::build(10, &[(0, 1)]);
        assert_eq!(g.degree(5), 0);
        assert!(g.neighbors(5).is_empty());
    }
}
