//! R-MAT edge generation, graph500-flavoured.
//!
//! The paper's BFS study uses graphs "according to the specs of the
//! graph500 benchmark" (§V.E): R-MAT with (A, B, C, D) =
//! (0.57, 0.19, 0.19, 0.05), `2^scale` vertices and `edgefactor`
//! edges per vertex, with a random vertex relabelling so that contiguous
//! 1-D partitions are load balanced.

use crate::bfs::{build_workers, run_jobs};
use apenet_sim::rng::Xoshiro256ss;

/// Graph500 R-MAT parameters.
pub const RMAT_A: f64 = 0.57;
/// Quadrant B.
pub const RMAT_B: f64 = 0.19;
/// Quadrant C.
pub const RMAT_C: f64 = 0.19;

/// Generate `edgefactor * 2^scale` R-MAT edges over `2^scale` vertices,
/// deterministically from `seed`, optionally permuting vertex labels.
///
/// Without the permutation the heavy R-MAT quadrant concentrates in the
/// low vertex ids — rank 0 of a contiguous 1-D partition then carries a
/// disproportionate share of every frontier, which is what throttles the
/// paper's strong scaling (Table IV); the full graph500 relabelling is
/// kept as an ablation.
///
/// The edges are generated on one thread per available CPU, or on the
/// calling thread alone for a small graph; the list is the same for any
/// worker count.
pub fn generate_with(scale: u32, edgefactor: u32, seed: u64, permute: bool) -> Vec<(u32, u32)> {
    let draws = ((edgefactor as usize) << scale) * scale as usize;
    generate_on(scale, edgefactor, seed, permute, build_workers(draws))
}

/// [`generate_with`] on `workers` threads.
///
/// Edge `e` takes draws `e · scale .. (e + 1) · scale` of the stream left
/// after the relabelling shuffle. Each worker fills a contiguous chunk of
/// the list, starting from that state advanced by `first edge · scale`
/// draws ([`Xoshiro256ss::advance`]), so every edge gets the draws it
/// would get from one thread.
pub(crate) fn generate_on(
    scale: u32,
    edgefactor: u32,
    seed: u64,
    permute: bool,
    workers: usize,
) -> Vec<(u32, u32)> {
    assert!(scale <= 30, "u32 vertex ids");
    let n = 1usize << scale;
    let m = n * edgefactor as usize;
    let mut rng = Xoshiro256ss::seed_from(seed);
    let perm = permute.then(|| {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut perm);
        perm
    });
    let chunk = m.div_ceil(workers.max(1)).max(1);
    let mut edges = vec![(0, 0); m];
    let perm = perm.as_deref();
    run_jobs(edges.chunks_mut(chunk).enumerate().map(|(i, part)| {
        let mut rng = rng.clone();
        rng.advance((i * chunk) as u64 * scale as u64);
        move || fill(part, rng, scale, perm)
    }));
    edges
}

/// Generate `edges.len()` consecutive edges from `rng`.
fn fill(edges: &mut [(u32, u32)], mut rng: Xoshiro256ss, scale: u32, perm: Option<&[u32]>) {
    let t = thresholds();
    for e in edges {
        // u's bits gather in the high half, v's in the low half.
        let mut uv = 0u64;
        for _ in 0..scale {
            let (ub, vb) = quadrant(rng.next_u64(), t);
            uv = uv << 1 | u64::from(ub) << 32 | u64::from(vb);
        }
        let (u, v) = ((uv >> 32) as u32, uv as u32);
        *e = match perm {
            Some(perm) => (perm[u as usize], perm[v as usize]),
            None => (u, v),
        };
    }
}

/// The quadrant thresholds on the raw draw `x = next_u64()`.
///
/// The f64 generator drew `next_f64() = k · 2^-53` with `k = x >> 11`,
/// exactly, and scaling the f64 cumulative sum `t` by `2^53` is exact too,
/// so `k · 2^-53 < t` holds exactly when `k < t · 2^53`, i.e. when
/// `k < ceil(t · 2^53)` for integer `k`; and `x >> 11 < T` holds exactly
/// when `x < T · 2^11`. The integer comparisons therefore pick the same
/// quadrant as the f64 ones on every draw.
fn thresholds() -> [u64; 3] {
    let scale = (1u64 << 53) as f64;
    [RMAT_A, RMAT_A + RMAT_B, RMAT_A + RMAT_B + RMAT_C].map(|t| ((t * scale).ceil() as u64) << 11)
}

/// The `(u, v)` bits of draw `x`, without branches: the count of
/// thresholds at or below `x` is the quadrant index, 0 = A = (0, 0),
/// 1 = B = (0, 1), 2 = C = (1, 0) or 3 = D = (1, 1).
#[inline]
fn quadrant(x: u64, [t1, t2, t3]: [u64; 3]) -> (u32, u32) {
    let q = (x >= t1) as u32 + (x >= t2) as u32 + (x >= t3) as u32;
    (q >> 1, q & 1)
}

/// [`generate_with`] with the graph500 relabelling enabled.
pub fn generate(scale: u32, edgefactor: u32, seed: u64) -> Vec<(u32, u32)> {
    generate_with(scale, edgefactor, seed, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The f64 generator [`generate_with`] replaced: same RNG stream,
    /// quadrant picked by comparing `next_f64()` with the cumulative sums.
    fn generate_f64(scale: u32, edgefactor: u32, seed: u64, permute: bool) -> Vec<(u32, u32)> {
        let n = 1u64 << scale;
        let m = n * edgefactor as u64;
        let mut rng = Xoshiro256ss::seed_from(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        if permute {
            rng.shuffle(&mut perm);
        }
        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..scale {
                let (ub, vb) = f64_quadrant(rng.next_f64());
                u = (u << 1) | ub;
                v = (v << 1) | vb;
            }
            edges.push((perm[u as usize], perm[v as usize]));
        }
        edges
    }

    fn f64_quadrant(r: f64) -> (u32, u32) {
        if r < RMAT_A {
            (0, 0)
        } else if r < RMAT_A + RMAT_B {
            (0, 1)
        } else if r < RMAT_A + RMAT_B + RMAT_C {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn integer_thresholds_give_the_f64_edge_lists() {
        for scale in [4, 10, 14] {
            for seed in [7, 499, 500, 1500] {
                for permute in [false, true] {
                    assert_eq!(
                        generate_with(scale, 16, seed, permute),
                        generate_f64(scale, 16, seed, permute),
                        "scale {scale} seed {seed} permute {permute}"
                    );
                }
            }
        }
        assert_eq!(
            generate_with(16, 16, 1500, true),
            generate_f64(16, 16, 1500, true)
        );
    }

    #[test]
    fn any_worker_count_generates_the_same_edges() {
        for scale in 4..=16 {
            for permute in [false, true] {
                let one = generate_on(scale, 16, 500, permute, 1);
                for workers in [2, 3, 7] {
                    assert!(
                        generate_on(scale, 16, 500, permute, workers) == one,
                        "scale {scale} permute {permute}, {workers} workers"
                    );
                }
            }
        }
        // More workers than edges: empty chunks.
        let one = generate_on(1, 2, 9, true, 1);
        assert_eq!(one.len(), 4);
        assert_eq!(generate_on(1, 2, 9, true, 7), one);
        assert!(generate_on(3, 0, 9, false, 3).is_empty());
    }

    #[test]
    fn each_threshold_boundary_matches_the_f64_compare() {
        let t = thresholds();
        let mut xs = vec![0, 1, u64::MAX - 1, u64::MAX];
        for tx in t {
            assert!(
                0 < tx && tx % (1 << 11) == 0,
                "threshold {tx} on a 53-bit step"
            );
            // Each boundary separates two different quadrants.
            assert_ne!(quadrant(tx - 1, t), quadrant(tx, t), "T = {tx}");
            xs.extend([tx - 1, tx]);
        }
        for x in xs {
            let r = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(quadrant(x, t), f64_quadrant(r), "x = {x}");
        }
    }

    #[test]
    fn deterministic_and_sized() {
        let a = generate(10, 16, 7);
        let b = generate(10, 16, 7);
        let c = generate(10, 16, 8);
        assert_eq!(a.len(), 16 << 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn vertices_in_range() {
        let edges = generate(8, 16, 1);
        for &(u, v) in &edges {
            assert!(u < 256 && v < 256);
        }
    }

    #[test]
    fn skewed_degree_distribution() {
        // R-MAT graphs are heavy-tailed: the maximum degree should far
        // exceed the mean.
        let edges = generate(12, 16, 3);
        let mut deg = vec![0u32; 1 << 12];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mean = 2.0 * edges.len() as f64 / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 8.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn permutation_balances_partitions() {
        // With relabelling, a contiguous 4-way split should see roughly
        // comparable edge endpoint counts (within 3x of each other).
        let edges = generate(12, 16, 3);
        let n = 1usize << 12;
        let mut per_part = [0u64; 4];
        for &(u, v) in &edges {
            per_part[(u as usize) * 4 / n] += 1;
            per_part[(v as usize) * 4 / n] += 1;
        }
        let max = *per_part.iter().max().unwrap() as f64;
        let min = *per_part.iter().min().unwrap() as f64;
        assert!(max / min < 3.0, "{per_part:?}");
    }
}
