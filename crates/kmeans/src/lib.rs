//! # kmeans — K-means clustering (STAMP application 4)
//!
//! Partitions `n` points in `d`-dimensional space into `k` clusters
//! (§III-B4 of the paper; the implementation follows MineBench's
//! structure). Each thread assigns its partition of points to the
//! nearest center; a small transaction protects the update of each
//! cluster center's accumulator. Contention depends on `k`: the
//! `kmeans-high` variants use 15 centers, `kmeans-low` 40.
//!
//! Transactional profile (Table III): short transactions, small
//! read/write sets, little time in transactions, low contention.

#![warn(missing_docs)]

use stamp_util::{AppReport, KmeansParams, Mt19937};
use tm::{TArray, TCell, TmConfig, TmRuntime};

/// A generated clustering input: `points[i * dims + j]`.
#[derive(Debug, Clone)]
pub struct Input {
    /// Flattened point coordinates.
    pub points: Vec<f64>,
    /// Number of points.
    pub n: usize,
    /// Dimensionality.
    pub dims: usize,
}

/// Generate the `random-n<N>-d<D>-c<C>` input of Table IV: points
/// scattered around `centers` random cluster centers.
pub fn generate_input(p: &KmeansParams) -> Input {
    let mut rng = Mt19937::new(p.seed);
    let n = p.points as usize;
    let dims = p.dims as usize;
    let c = p.centers as usize;
    let mut centers = vec![0.0f64; c * dims];
    for v in centers.iter_mut() {
        *v = rng.next_f64() * 100.0;
    }
    let mut points = vec![0.0f64; n * dims];
    for i in 0..n {
        let cluster = rng.below(c as u64) as usize;
        for j in 0..dims {
            points[i * dims + j] = centers[cluster * dims + j] + (rng.next_f64() - 0.5) * 20.0;
        }
    }
    Input { points, n, dims }
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Result of a clustering run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Final cluster centers, flattened `k * dims`.
    pub centers: Vec<f64>,
    /// Cluster index of each point.
    pub membership: Vec<usize>,
    /// Iterations until convergence.
    pub iterations: u32,
}

impl Clustering {
    /// Within-cluster sum of squared distances (the clustering quality
    /// objective).
    pub fn wcss(&self, input: &Input) -> f64 {
        let d = input.dims;
        (0..input.n)
            .map(|i| {
                let c = self.membership[i];
                dist_sq(
                    &input.points[i * d..(i + 1) * d],
                    &self.centers[c * d..(c + 1) * d],
                )
            })
            .sum()
    }
}

const MAX_ITERATIONS: u32 = 500;

/// Sequential reference implementation (standard Lloyd iterations with
/// STAMP's convergence rule: stop when the fraction of points changing
/// membership drops below `threshold`).
pub fn cluster_seq(input: &Input, k: usize, threshold: f64) -> Clustering {
    let d = input.dims;
    let n = input.n;
    // STAMP seeds centers with the first k points.
    let mut centers: Vec<f64> = input.points[..k * d].to_vec();
    let mut membership = vec![usize::MAX; n];
    let mut iterations = 0;
    loop {
        let mut delta = 0u64;
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let p = &input.points[i * d..(i + 1) * d];
            let best = (0..k)
                .min_by(|&a, &b| {
                    dist_sq(p, &centers[a * d..(a + 1) * d])
                        .partial_cmp(&dist_sq(p, &centers[b * d..(b + 1) * d]))
                        .expect("finite distances")
                })
                .expect("k >= 1");
            if membership[i] != best {
                delta += 1;
                membership[i] = best;
            }
            counts[best] += 1;
            for j in 0..d {
                sums[best * d + j] += p[j];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centers[c * d + j] = sums[c * d + j] / counts[c] as f64;
                }
            }
        }
        iterations += 1;
        if (delta as f64 / n as f64) < threshold || iterations >= MAX_ITERATIONS {
            break;
        }
    }
    Clustering {
        centers,
        membership,
        iterations,
    }
}

/// Shared transactional state of the parallel version.
struct Shared {
    points: TArray<f64>,
    centers: TArray<f64>,
    sums: TArray<f64>,
    counts: TArray<u64>,
    delta: TCell<u64>,
    membership: TArray<u64>,
    n: u64,
    d: u64,
    k: u64,
}

/// Run the transactional parallel version on the given TM configuration
/// and return the clustering together with the TM run report.
pub fn cluster_tm(
    input: &Input,
    k: usize,
    threshold: f64,
    cfg: TmConfig,
) -> (Clustering, tm::RunReport) {
    let rt = TmRuntime::new(cfg);
    let heap = rt.heap();
    let n = input.n as u64;
    let d = input.dims as u64;
    let shared = Shared {
        points: heap.alloc_array::<f64>(n * d, 0.0),
        centers: heap.alloc_array::<f64>(k as u64 * d, 0.0),
        sums: heap.alloc_array::<f64>(k as u64 * d, 0.0),
        counts: heap.alloc_array::<u64>(k as u64, 0),
        delta: heap.alloc_cell(0u64),
        membership: heap.alloc_array::<u64>(n, u64::MAX),
        n,
        d,
        k: k as u64,
    };
    for (i, &v) in input.points.iter().enumerate() {
        heap.store_elem(&shared.points, i as u64, v);
    }
    for i in 0..(k as u64 * d) {
        heap.store_elem(&shared.centers, i, input.points[i as usize]);
    }
    let iters_cell = heap.alloc_cell(0u32);

    let report = rt.run(|ctx| {
        let tid = ctx.tid() as u64;
        let threads = ctx.threads() as u64;
        let d = shared.d;
        let k = shared.k;
        let per = shared.n.div_ceil(threads);
        let lo = tid * per;
        let hi = ((tid + 1) * per).min(shared.n);
        let mut iterations = 0u32;
        loop {
            // Snapshot the centers (read-only this phase).
            let mut centers = vec![0.0f64; (k * d) as usize];
            for i in 0..k * d {
                centers[i as usize] = ctx.load(&shared.centers.cell(i));
            }
            let mut local_delta = 0u64;
            for i in lo..hi {
                // Point coordinates (thread-private partition).
                let mut p = vec![0.0f64; d as usize];
                for j in 0..d {
                    p[j as usize] = ctx.load(&shared.points.cell(i * d + j));
                }
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..k as usize {
                    let dd = dist_sq(&p, &centers[c * d as usize..(c + 1) * d as usize]);
                    ctx.work(3 * d); // multiply-add chain per dimension
                    if dd < best_d {
                        best_d = dd;
                        best = c;
                    }
                }
                let prev = ctx.load(&shared.membership.cell(i));
                if prev != best as u64 {
                    local_delta += 1;
                    ctx.store(&shared.membership.cell(i), best as u64);
                }
                // The paper's transaction: update the chosen center's
                // accumulator (size proportional to D).
                let best = best as u64;
                ctx.atomic(|txn| {
                    let c = txn.read_idx(&shared.counts, best)?;
                    txn.write_idx(&shared.counts, best, c + 1)?;
                    for j in 0..d {
                        let s = txn.read_idx(&shared.sums, best * d + j)?;
                        txn.write_idx(&shared.sums, best * d + j, s + p[j as usize])?;
                    }
                    Ok(())
                });
            }
            if local_delta > 0 {
                ctx.atomic(|txn| {
                    let dv = txn.read(&shared.delta)?;
                    txn.write(&shared.delta, dv + local_delta)
                });
            }
            ctx.barrier();
            // Thread 0 folds the accumulators into new centers.
            if tid == 0 {
                for c in 0..k {
                    let count = ctx.load(&shared.counts.cell(c));
                    if count > 0 {
                        for j in 0..d {
                            let s = ctx.load(&shared.sums.cell(c * d + j));
                            ctx.store(&shared.centers.cell(c * d + j), s / count as f64);
                            ctx.store(&shared.sums.cell(c * d + j), 0.0);
                        }
                    }
                    ctx.store(&shared.counts.cell(c), 0);
                }
            }
            ctx.barrier();
            iterations += 1;
            let delta = ctx.load(&shared.delta);
            let done = (delta as f64 / shared.n as f64) < threshold || iterations >= MAX_ITERATIONS;
            ctx.barrier();
            if tid == 0 {
                ctx.store(&shared.delta, 0);
                ctx.store(&iters_cell, iterations);
            }
            ctx.barrier();
            if done {
                break;
            }
        }
    });

    let centers = (0..k as u64 * d)
        .map(|i| heap.load_elem(&shared.centers, i))
        .collect();
    let membership = (0..n)
        .map(|i| heap.load_elem(&shared.membership, i) as usize)
        .collect();
    let clustering = Clustering {
        centers,
        membership,
        iterations: heap.load_cell(&iters_cell),
    };
    (clustering, report)
}

/// Run one kmeans configuration end to end: generate the input, run the
/// sequential reference and the transactional version, verify, and
/// report. The paper's `-m`/`-n` sweep collapses to a single `k` in
/// every Table IV variant (`m == n`).
pub fn run(params: &KmeansParams, cfg: TmConfig) -> AppReport {
    let input = generate_input(params);
    let k = params.min_clusters as usize;
    let seq = cluster_seq(&input, k, params.threshold);
    let (par, report) = cluster_tm(&input, k, params.threshold, cfg);
    let verified = verify(&input, &seq, &par);
    AppReport::new(
        "kmeans",
        format!(
            "k={k} n={} d={} t={}",
            params.points, params.dims, params.threshold
        ),
        report,
        verified,
    )
}

/// Check the parallel clustering against the sequential reference: every
/// point assigned, every center finite, and clustering quality within
/// 10% (floating-point accumulation order differs across threads, so
/// exact equality is not expected).
pub fn verify(input: &Input, seq: &Clustering, par: &Clustering) -> bool {
    if par.membership.len() != input.n {
        return false;
    }
    if par
        .membership
        .iter()
        .any(|&c| c >= par.centers.len() / input.dims)
    {
        return false;
    }
    if par.centers.iter().any(|v| !v.is_finite()) {
        return false;
    }
    let seq_q = seq.wcss(input);
    let par_q = par.wcss(input);
    par_q <= seq_q * 1.10 + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm::SystemKind;

    fn small_params() -> KmeansParams {
        KmeansParams {
            min_clusters: 4,
            max_clusters: 4,
            threshold: 0.05,
            points: 256,
            dims: 4,
            centers: 4,
            seed: 7,
        }
    }

    #[test]
    fn input_generation_is_deterministic() {
        let p = small_params();
        let a = generate_input(&p);
        let b = generate_input(&p);
        assert_eq!(a.points, b.points);
        assert_eq!(a.n, 256);
        assert_eq!(a.dims, 4);
    }

    #[test]
    fn sequential_clusters_sensibly() {
        let p = small_params();
        let input = generate_input(&p);
        let c = cluster_seq(&input, 4, 0.05);
        assert!(c.iterations >= 1);
        assert_eq!(c.membership.len(), 256);
        // Quality should beat the trivial single-cluster assignment.
        let single = cluster_seq(&input, 1, 0.05);
        assert!(c.wcss(&input) < single.wcss(&input));
    }

    #[test]
    fn parallel_matches_reference_on_all_systems() {
        let p = small_params();
        let input = generate_input(&p);
        let seq = cluster_seq(&input, 4, 0.05);
        for sys in SystemKind::ALL_TM {
            let (par, report) = cluster_tm(&input, 4, 0.05, TmConfig::new(sys, 4));
            assert!(verify(&input, &seq, &par), "quality regression under {sys}");
            assert!(
                report.stats.commits >= 256,
                "missing transactions under {sys}"
            );
        }
    }

    #[test]
    fn run_entry_point_verifies() {
        let rep = run(&small_params(), TmConfig::new(SystemKind::LazyStm, 2));
        assert!(rep.verified);
        assert_eq!(rep.app, "kmeans");
    }

    #[test]
    fn little_time_in_transactions_on_htm() {
        // Table VI measures kmeans at 3-7% time in transactions on the
        // lazy HTM; with paper-like k and d the model must agree in
        // spirit (well under half the time transactional).
        let p = KmeansParams {
            min_clusters: 15,
            max_clusters: 15,
            threshold: 0.05,
            points: 512,
            dims: 16,
            centers: 16,
            seed: 7,
        };
        let rep = run(&p, TmConfig::new(SystemKind::LazyHtm, 4));
        assert!(rep.verified);
        assert!(
            rep.run.stats.time_in_txn() < 0.35,
            "time in txn = {}",
            rep.run.stats.time_in_txn()
        );
    }

    #[test]
    fn sequential_baseline_runs() {
        let rep = run(&small_params(), TmConfig::sequential());
        assert!(rep.verified);
    }
}
