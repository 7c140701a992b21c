//! Compressed sparse row adjacency.

use crate::bfs::{build_workers, run_jobs};
use std::cell::Cell;
use std::ops::Range;

/// An undirected graph in CSR form: every input edge is stored in both
//  directions; self-loops dropped; parallel edges deduplicated.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u64>,
    adjacency: Vec<u32>,
    undirected_edges: u64,
}

/// Entries a row block aims at: its keys and their radix scratch, 256 KiB
/// each, stay in a core's L2 cache while the block is sorted.
const BLOCK_ENTRIES: usize = 1 << 16;

/// Widest radix digit: 2^11 counters per pass, and at most three passes
/// over a 32-bit key.
const DIGIT_BITS: u32 = 11;

/// A run of consecutive rows whose entries are sorted together.
struct Block {
    rows: Range<usize>,
    entries: Range<usize>,
    /// Entries left after deduplication, compacted to the front of
    /// `entries`.
    kept: usize,
}

impl Csr {
    /// Build from an edge list over `n` vertices.
    ///
    /// The build runs on one thread per available CPU, or on the calling
    /// thread alone for a small graph; the graph is the same for any
    /// worker count.
    pub fn build(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::build_on(n, edges, build_workers(2 * edges.len()))
    }

    /// [`build`](Self::build) on `workers` threads.
    ///
    /// The edge list is cut into one contiguous share per worker.
    ///
    /// 1. Each worker counts its share's entries per row (both
    ///    directions, self-loops dropped); a row's length is the sum.
    /// 2. Cut the rows into blocks of about [`BLOCK_ENTRIES`] entries; a
    ///    row longer than that is a block of its own. Within a block an
    ///    entry is the packed key `row-in-block << col_bits | col`, where
    ///    `col_bits` holds the largest vertex id, so a block has at most
    ///    `2^(32 - col_bits)` rows.
    /// 3. Each worker scatters its share's keys into its own slice of
    ///    each block's range of the adjacency buffer, in any order.
    /// 4. Sort each block's keys (LSD radix) and deduplicate them into
    ///    columns at the front of its range, counting each row's kept
    ///    entries. Blocks are split over the workers by entry count.
    /// 5. Compact the blocks to the front of the buffer, in order, and
    ///    prefix-sum the row counts into offsets.
    pub(crate) fn build_on(n: usize, edges: &[(u32, u32)], workers: usize) -> Self {
        // A share holds at most u32::MAX / 2 edges, so its per-row counts
        // fit a u32.
        let share = edges.len().div_ceil(workers.max(1));
        let shares: Vec<&[(u32, u32)]> = edges
            .chunks(share.clamp(1, u32::MAX as usize / 2))
            .collect();
        let mut counts = vec![0u32; shares.len() * n];
        run_jobs(
            shares
                .iter()
                .zip(counts.chunks_mut(n.max(1)))
                .map(|(share, c)| move || count_rows(share, c)),
        );
        let mut offsets = vec![0u64; n + 1];
        for c in counts.chunks(n.max(1)) {
            for (off, &c) in offsets.iter_mut().zip(c) {
                *off += u64::from(c);
            }
        }
        // Cut the blocks. Each row's count becomes its block index (high
        // half) and its key prefix `row-in-block << col_bits` (low half).
        let col_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        assert!(col_bits <= 32, "u32 vertex ids");
        let max_rows = 1usize << (32 - col_bits);
        let mut blocks = Vec::new();
        let (mut first, mut start, mut end) = (0, 0, 0);
        for (i, off) in offsets[..n].iter_mut().enumerate() {
            let d = *off as usize;
            if i > first && (end - start + d > BLOCK_ENTRIES || i - first == max_rows) {
                blocks.push(Block {
                    rows: first..i,
                    entries: start..end,
                    kept: 0,
                });
                (first, start) = (i, end);
            }
            *off = (blocks.len() as u64) << 32 | ((i - first) as u64) << col_bits;
            end += d;
        }
        if n > 0 {
            blocks.push(Block {
                rows: first..n,
                entries: start..end,
                kept: 0,
            });
        }
        // Give each share its own slice of each block, sized by its row
        // counts, and scatter the shares' keys into them in parallel.
        let mut adjacency = vec![0u32; end];
        let mut targets: Vec<Vec<&mut [u32]>> = shares
            .iter()
            .map(|_| Vec::with_capacity(blocks.len()))
            .collect();
        let mut rest = &mut adjacency[..];
        for b in &blocks {
            for (t, c) in targets.iter_mut().zip(counts.chunks(n.max(1))) {
                let len: u32 = c[b.rows.clone()].iter().sum();
                t.push(take_front(&mut rest, len as usize));
            }
        }
        drop(counts);
        let packed = &offsets;
        run_jobs(
            shares
                .iter()
                .zip(&mut targets)
                .map(|(share, t)| move || scatter_keys(share, packed, t)),
        );
        drop(targets);
        sort_blocks(
            &mut blocks,
            &mut adjacency,
            &mut offsets[..n],
            col_bits,
            workers,
        );
        // Compact: the write cursor never passes a block's start, so each
        // block moves down over entries already consumed.
        let mut w = 0;
        for b in &blocks {
            adjacency.copy_within(b.entries.start..b.entries.start + b.kept, w);
            w += b.kept;
        }
        let mut row_start = 0;
        for off in &mut offsets {
            (*off, row_start) = (row_start, row_start + *off);
        }
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

/// Count each row's entries in `edges` (both directions, self-loops
/// dropped) into `counts`.
fn count_rows(edges: &[(u32, u32)], counts: &mut [u32]) {
    for &(u, v) in edges {
        if u != v {
            counts[u as usize] += 1;
            counts[v as usize] += 1;
        }
    }
}

/// Write each entry of `edges` as its packed key (`packed[row]`'s low
/// half, or'd with the column) into the next free slot of its block's
/// target, `targets[packed[row] >> 32]`.
fn scatter_keys(edges: &[(u32, u32)], packed: &[u64], targets: &mut [&mut [u32]]) {
    for &(u, v) in edges {
        if u != v {
            for (row, col) in [(u, v), (v, u)] {
                let p = packed[row as usize];
                let t = &mut targets[(p >> 32) as usize];
                let (slot, rest) = std::mem::take(t)
                    .split_first_mut()
                    .expect("a target holds its share's count of the block's entries");
                *slot = p as u32 | col;
                *t = rest;
            }
        }
    }
}

/// Sort and deduplicate every block ([`sort_block`]), on up to `workers`
/// threads. Worker `g` takes the blocks that end past `g / workers` and
/// by `(g + 1) / workers` of the entries; the calling thread takes the
/// last share, and allocates every worker's scratch.
fn sort_blocks(
    blocks: &mut [Block],
    mut adjacency: &mut [u32],
    mut rows: &mut [u64],
    col_bits: u32,
    workers: usize,
) {
    let workers = workers.clamp(1, blocks.len().max(1));
    let total = adjacency.len();
    let mut groups = Vec::with_capacity(workers);
    let mut rest = blocks;
    for g in 1..=workers {
        let goal = total * g / workers;
        let take = if g == workers {
            rest.len()
        } else {
            rest.iter().take_while(|b| b.entries.end <= goal).count()
        };
        groups.push(take_front(&mut rest, take));
    }
    let widest = |group: &[Block]| group.iter().map(|b| b.entries.len()).max().unwrap_or(0);
    let mut scratch = vec![0u32; groups.iter().map(|g| widest(g)).sum()];
    let mut scratch = &mut scratch[..];
    let jobs = groups.into_iter().filter(|g| !g.is_empty()).map(|group| {
        let mut keys = take_front(&mut adjacency, group.iter().map(|b| b.entries.len()).sum());
        let mut deg = take_front(&mut rows, group.iter().map(|b| b.rows.len()).sum());
        let buf = take_front(&mut scratch, widest(group));
        move || {
            for b in group {
                let len = b.entries.len();
                let (k, d) = (
                    take_front(&mut keys, len),
                    take_front(&mut deg, b.rows.len()),
                );
                b.kept = sort_block(k, &mut buf[..len], d, col_bits);
            }
        }
    });
    run_jobs(jobs);
}

/// Split the first `len` items off `rest`.
fn take_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(len);
    *rest = back;
    front
}

/// Sort one block's packed keys with an LSD radix sort, using `scratch`
/// (as long as `keys`), then keep the first of each run of equal keys:
/// their columns go to the front of `keys` and each row's count of them
/// into `deg`. Returns the count kept.
fn sort_block(keys: &mut [u32], scratch: &mut [u32], deg: &mut [u64], col_bits: u32) -> usize {
    let row_bits = usize::BITS - (deg.len() - 1).leading_zeros();
    let bits = row_bits + col_bits;
    let passes = bits.div_ceil(DIGIT_BITS).max(1);
    let width = bits.div_ceil(passes);
    let mask = (1u32 << width) - 1;
    // All digit histograms in one read.
    let mut counts = [[0u32; 1 << DIGIT_BITS]; 3];
    for &k in keys.iter() {
        for (p, c) in counts[..passes as usize].iter_mut().enumerate() {
            c[(k >> (p as u32 * width) & mask) as usize] += 1;
        }
    }
    let mut in_scratch = false;
    for (p, c) in counts[..passes as usize].iter_mut().enumerate() {
        let c = &mut c[..=mask as usize];
        // A digit every key shares leaves the order as it is.
        if c.iter().any(|&x| x as usize == keys.len()) {
            continue;
        }
        let mut at = 0;
        for x in c.iter_mut() {
            (*x, at) = (at, at + *x);
        }
        let shift = p as u32 * width;
        if in_scratch {
            scatter(scratch, keys, shift, mask, c);
        } else {
            scatter(keys, scratch, shift, mask, c);
        }
        in_scratch = !in_scratch;
    }
    let out = Cell::from_mut(keys).as_slice_of_cells();
    let sorted = if in_scratch {
        Cell::from_mut(scratch).as_slice_of_cells()
    } else {
        out
    };
    deg.fill(0);
    let col_mask = ((1u64 << col_bits) - 1) as u32;
    let mut kept = 0;
    let mut prev = None;
    for k in sorted.iter().map(Cell::get) {
        if prev != Some(k) {
            prev = Some(k);
            // In place, `kept` never passes the key being read.
            out[kept].set(k & col_mask);
            deg[(u64::from(k) >> col_bits) as usize] += 1;
            kept += 1;
        }
    }
    kept
}

/// One stable counting pass: move each key of `src` to `dst` at its
/// digit's next free slot in `at`.
fn scatter(src: &[u32], dst: &mut [u32], shift: u32, mask: u32, at: &mut [u32]) {
    for &k in src {
        let slot = &mut at[(k >> shift & mask) as usize];
        dst[*slot as usize] = k;
        *slot += 1;
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

    /// `build_on` gives the two-buffer build's bytes on 1, 2, 3 and 7
    /// workers.
    fn assert_any_workers(n: usize, edges: &[(u32, u32)]) {
        let want = build_two_buffers(n, edges);
        for workers in [1, 2, 3, 7] {
            let g = Csr::build_on(n, edges, workers);
            assert_eq!(
                (&g.offsets, &g.adjacency, g.undirected_edges),
                (&want.offsets, &want.adjacency, want.undirected_edges),
                "n {n}, {} edges, {workers} workers",
                edges.len()
            );
        }
    }

    #[test]
    fn any_worker_count_builds_the_same_rmat_graph() {
        for scale in 4..=16 {
            for permute in [false, true] {
                let edges = crate::bfs::rmat::generate_with(scale, 16, 500, permute);
                let one = Csr::build_on(1 << scale, &edges, 1);
                for workers in [2, 3, 7] {
                    let g = Csr::build_on(1 << scale, &edges, workers);
                    assert_eq!(
                        (&g.offsets, &g.adjacency),
                        (&one.offsets, &one.adjacency),
                        "scale {scale} permute {permute}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn any_worker_count_builds_the_same_hand_graphs() {
        // A hub row longer than a block, its own block; the next row
        // shares its first columns, so the two blocks hold equal packed
        // keys. Self-loops and duplicates on the hub.
        let hub = BLOCK_ENTRIES as u32 + 4_000;
        let mut edges: Vec<(u32, u32)> = (0..hub).map(|v| (3, v)).collect();
        edges.extend((0..50).map(|v| (4, v)));
        edges.extend([(3, 3), (3, 9), (9, 3), (4, 0), (7, 7), (7, 7)]);
        assert_any_workers(hub as usize + 10, &edges);
        // Every row has duplicates in both directions, over several
        // blocks, so duplicates sit on both sides of every block edge.
        let mut rng = apenet_sim::rng::Xoshiro256ss::seed_from(25);
        let n = 3_000u64;
        let mut edges = Vec::new();
        for _ in 0..120_000 {
            let (u, v) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
            edges.extend([(u, v), (v, u), (u, v)]);
        }
        assert!(edges.len() * 2 > 4 * BLOCK_ENTRIES, "several blocks");
        assert_any_workers(n as usize, &edges);
        // n not a power of two, with runs of empty rows longer than a
        // block may hold (2^(32 - 21) rows), and the largest vertex id.
        let n = (1 << 20) + 3;
        let last = n as u32 - 1;
        let mut edges = vec![(0, last), (last, 1), (last, last), (5_000, 5_001)];
        edges.extend((0..300).map(|i| (i * 3_001, last - i)));
        assert_any_workers(n, &edges);
        // A row made only of self-loops, empty rows, n = 1, no edges.
        assert_any_workers(8, &[(2, 2), (2, 2), (5, 6), (6, 5)]);
        assert_any_workers(1, &[(0, 0)]);
        assert_any_workers(1, &[]);
        assert_any_workers(5, &[]);
        assert_any_workers(0, &[]);
    }

    #[test]
    fn isolated_vertices_ok() {
        let g = Csr::build(10, &[(0, 1)]);
        assert_eq!(g.degree(5), 0);
        assert!(g.neighbors(5).is_empty());
    }
}
