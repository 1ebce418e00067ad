//! HyperBall: sketch-based neighbourhood-function analytics.
//!
//! Each vertex keeps a HyperLogLog counter of the vertices whose balls
//! have reached it. One synchronous push iteration grows every ball by
//! one hop, so after iteration `t` vertex `v`'s counter sketches
//! `B_in(v, t) = {u : d(u→v) ≤ t}` and the sum of the per-vertex
//! estimates is the graph's **neighbourhood function** `N(t)` — the
//! number of ordered pairs within distance `t`. The per-radius deltas
//! additionally yield (in-)**harmonic centrality**
//! (`Σ_t Δ_v(t)/t`), the sum-of-distances behind closeness, and a
//! **diameter lower bound** (the largest radius at which any sketch
//! still grew); pass the transposed graph to get the out-distance
//! conventions.
//!
//! This is the HyperBall family of Boldi & Vigna, recast as a HyTGraph
//! vertex program over the width-aware value layer: the registers live
//! in a multi-lane [`HllSketch`], the fold is the lane-wise register
//! max (commutative, associative, idempotent — but **not** a 64-bit
//! semiring atom, which is exactly what the generalised `accumulate`
//! contract permits), and change detection is explicit (`merge` reports
//! whether any register rose).
//!
//! Every counter is one [`HllSketch`] (64 one-byte registers, RSE 13%):
//! 8 value lanes per vertex, wide enough to exercise every width-aware
//! layer and small enough to sweep.
//!
//! HyperBall's classic systolic→local optimisation — scan all vertices
//! while the frontier is dense, then switch to propagating only changed
//! counters — is not a separate code path here: it *is* the cost-model's
//! engine crossover. Dense iterations price whole-partition filter
//! copies (the local scan); once the changed set thins, compaction /
//! zero-copy ship exactly the changed vertices (the systolic update),
//! with the switch decided per partition by formulas (1)–(3) instead of
//! a global heuristic.
//!
//! Between devices the other half of "propagate only changed counters"
//! holds per register: a published sketch prices a register bitmap plus
//! the registers that rose this iteration, or the whole sketch when
//! that is smaller (`VertexValue::wire_bytes_since`).

use hyt_core::api::{EdgeCtx, InitialFrontier, VertexProgram, VertexValue, MAX_VALUE_LANES};
use hyt_core::{AsyncMode, HyTGraphConfig, HyTGraphSystem, RunResult};
use hyt_graph::{Csr, VertexId};
use std::sync::Mutex;

/// Standard relative standard error of one counter: `1.04 / √64 = 0.13`.
pub const HLL_RSE: f64 = 1.04 / 8.0;

/// Precision exponent: `2^P` registers per sketch.
const P: u32 = 6;
/// Registers per sketch.
const REGISTERS: usize = 1 << P;
/// 64-bit lanes per sketch (8 one-byte registers each).
const SKETCH_LANES: usize = REGISTERS / 8;

/// Bias-correction constant `α_64` of the raw HLL estimator, the
/// empirically-fitted value for 64 registers (Flajolet et al.).
const ALPHA: f64 = 0.709;

/// SplitMix64 finaliser — the stateless vertex-id hash feeding the
/// sketch. Deterministic by construction: no seeds, no platform state.
fn splitmix64(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Non-zero bytes of `x`: fold each byte's bits into its low bit, then
/// count the low bits.
fn nonzero_bytes(x: u64) -> u64 {
    let mut t = x | (x >> 4);
    t |= t >> 2;
    t |= t >> 1;
    u64::from((t & 0x0101_0101_0101_0101).count_ones())
}

/// The 64-register HyperLogLog counter (`p = 6`, RSE 13%): one-byte
/// registers packed 8 per 64-bit lane, so one sketch is exactly 8 value
/// lanes (64 bytes) per vertex; merge = element-wise register maximum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HllSketch {
    lanes: [u64; SKETCH_LANES],
}

// The value store stages a sketch in fixed stack buffers.
const _: () = assert!(SKETCH_LANES <= MAX_VALUE_LANES);

impl HllSketch {
    /// The empty sketch (estimates 0).
    // hyt-lint: allow(unreached-pub) -- integration tests fold explicit id sets into a sketch starting from it
    pub fn empty() -> HllSketch {
        HllSketch { lanes: [0; SKETCH_LANES] }
    }

    /// The sketch of the one-element set `{v}`.
    // hyt-lint: allow(unreached-pub) -- integration tests build the sketch of an explicit id set and of exact in-balls from it
    pub fn singleton(v: VertexId) -> HllSketch {
        let h = splitmix64(v as u64);
        let idx = (h & (REGISTERS as u64 - 1)) as usize;
        // Rank of the first 1-bit in the non-index part of the hash,
        // capped so the register value always fits its byte.
        let w = h >> P;
        let rho = (w.trailing_zeros() + 1).min(64 - P) as u64;
        let mut lanes = [0u64; SKETCH_LANES];
        lanes[idx / 8] = rho << (8 * (idx % 8));
        HllSketch { lanes }
    }

    /// Register `j` (0..`REGISTERS`).
    fn register(&self, j: usize) -> u8 {
        (self.lanes[j / 8] >> (8 * (j % 8))) as u8
    }

    /// Element-wise register maximum — commutative, associative,
    /// idempotent, and monotone per lane (each register only grows),
    /// which is what makes lock-free torn reads of the wide value safe.
    pub fn merge(self, other: HllSketch) -> HllSketch {
        let mut lanes = [0u64; SKETCH_LANES];
        for (out, (&a, &b)) in lanes.iter_mut().zip(self.lanes.iter().zip(other.lanes.iter())) {
            let mut merged = 0u64;
            for byte in 0..8 {
                let sh = 8 * byte;
                let x = (a >> sh) & 0xFF;
                let y = (b >> sh) & 0xFF;
                merged |= x.max(y) << sh;
            }
            *out = merged;
        }
        HllSketch { lanes }
    }

    /// The HLL cardinality estimate: `α_m · m² / Σ_j 2^(−M_j)`, with the
    /// standard linear-counting correction in the small range.
    pub fn estimate(&self) -> f64 {
        let m = REGISTERS as f64;
        let mut inv_sum = 0.0f64;
        let mut zeros = 0u32;
        for j in 0..REGISTERS {
            let r = self.register(j);
            if r == 0 {
                zeros += 1;
            }
            inv_sum += (-(r as f64)).exp2();
        }
        let raw = ALPHA * m * m / inv_sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }
}

impl VertexValue for HllSketch {
    const LANES: usize = SKETCH_LANES;
    const WIRE_BYTES: u64 = REGISTERS as u64;

    /// A `REGISTERS / 8`-byte bitmap of the changed registers plus one
    /// byte per changed register, or the whole sketch when that is
    /// smaller (a form flag says which: the id's spare bit, or a form bit
    /// in a bitmap batch).
    /// Exact because register-max only raises registers, so the changed
    /// ones rebuild `self` on a replica holding `old`.
    fn wire_bytes_since(&self, old: &Self) -> u64 {
        let changed: u64 =
            self.lanes.iter().zip(old.lanes.iter()).map(|(&a, &b)| nonzero_bytes(a ^ b)).sum();
        let sparse = REGISTERS as u64 / 8 + changed;
        sparse.min(Self::WIRE_BYTES)
    }

    const TWO_FORM_RECORDS: bool = true;

    fn to_bits(self) -> u64 {
        unreachable!("wide values use the lane interface")
    }
    fn from_bits(_: u64) -> Self {
        unreachable!("wide values use the lane interface")
    }
    fn store_lanes(self, out: &mut [u64]) {
        out.copy_from_slice(&self.lanes);
    }
    fn load_lanes(lanes: &[u64]) -> Self {
        let mut a = [0u64; SKETCH_LANES];
        a.copy_from_slice(lanes);
        HllSketch { lanes: a }
    }
}

/// Per-radius accumulators read off the sketch trajectory.
struct Trajectory {
    /// Last radius's estimate per vertex.
    prev: Vec<f64>,
    /// `nf[t]`: sum of estimates after radius `t` (`nf[0]` = radius 0).
    nf: Vec<f64>,
    /// `Σ_t Δ_v(t)/t` so far.
    harmonic: Vec<f64>,
    /// `Σ_t Δ_v(t)·t` so far.
    sum_of_distances: Vec<f64>,
}

/// The HyperBall vertex program. Must run under [`AsyncMode::Sync`] —
/// one hop per iteration is what makes iteration `t` mean radius `t` —
/// which [`run_hyperball`] enforces; the program itself converges under
/// any mode (the merge is idempotent), but the per-radius readings would
/// be meaningless.
pub struct HyperBall {
    trajectory: Mutex<Trajectory>,
}

impl HyperBall {
    /// A HyperBall program for a graph of `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> HyperBall {
        let prev: Vec<f64> =
            (0..num_vertices).map(|v| HllSketch::singleton(v).estimate()).collect();
        let nf0 = prev.iter().sum();
        HyperBall {
            trajectory: Mutex::new(Trajectory {
                prev,
                nf: vec![nf0],
                harmonic: vec![0.0; num_vertices as usize],
                sum_of_distances: vec![0.0; num_vertices as usize],
            }),
        }
    }
}

impl VertexProgram for HyperBall {
    type Value = HllSketch;
    const OBSERVES_ITERATIONS: bool = true;

    fn init(&self, v: VertexId) -> HllSketch {
        HllSketch::singleton(v)
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn message(&self, seed: HllSketch, _ctx: EdgeCtx) -> Option<HllSketch> {
        Some(seed)
    }

    fn accumulate(&self, state: HllSketch, msg: HllSketch) -> Option<HllSketch> {
        let merged = state.merge(msg);
        (merged != state).then_some(merged)
    }

    fn observe_iteration(&self, iteration: u32, values: &[HllSketch]) {
        // After iteration i every sketch holds its radius-(i+1) ball.
        let t = (iteration + 1) as f64;
        // hyt-lint: allow(unwrap-in-lib) -- a poisoned trajectory means an observer panicked mid-update and the running sums are inconsistent; propagate the panic
        let mut traj = self.trajectory.lock().expect("trajectory poisoned");
        let mut total = 0.0;
        for (v, sketch) in values.iter().enumerate() {
            let est = sketch.estimate();
            total += est;
            // Clamp: estimates are monotone in the registers, so a
            // negative delta can only be floating-point noise.
            let delta = (est - traj.prev[v]).max(0.0);
            if delta > 0.0 {
                traj.harmonic[v] += delta / t;
                traj.sum_of_distances[v] += delta * t;
            }
            traj.prev[v] = est;
        }
        traj.nf.push(total);
    }
}

/// Everything HyperBall reads off one run. All estimates carry the
/// standard HLL relative error ([`HLL_RSE`] per counter); the register
/// states themselves are deterministic — bit-identical across thread
/// counts, device counts and topologies (the merge is idempotent and
/// commutative, and iterations are synchronous).
#[derive(Clone, Debug)]
// hyt-lint: allow(unreached-pub) -- named in the public signature of `run_hyperball`
pub struct HyperBallResult {
    /// Estimated neighbourhood function: `nf[t]` ≈ ordered pairs within
    /// distance `t` (`nf[0]` = the `nv` trivial pairs). One entry per
    /// executed radius; the last two entries agree (the final iteration
    /// grows nothing).
    pub nf: Vec<f64>,
    /// Estimated in-harmonic centrality per vertex.
    pub harmonic: Vec<f64>,
    /// Estimated `Σ_u d(u→v)` per vertex (closeness denominator).
    pub sum_of_distances: Vec<f64>,
    /// `1 / sum_of_distances` (0 for vertices nothing reaches).
    pub closeness: Vec<f64>,
    /// Largest radius at which any sketch still grew: a lower bound on
    /// the directed diameter (exact when no register collision hides
    /// the last hop, and the run wasn't capped by `max_iterations`).
    pub diameter_lower_bound: u32,
    /// The underlying run record (values are the converged sketches).
    pub run: RunResult<HllSketch>,
}

/// Run HyperBall on `graph` under `config`, forcing synchronous mode
/// (radius semantics; see [`HyperBall`]). In-distance conventions —
/// transpose the graph first for out-distances. Every published vertex
/// ships up to [`HllSketch`]'s 64 wire bytes per exchange.
pub fn run_hyperball(graph: Csr, config: HyTGraphConfig) -> HyperBallResult {
    let config = HyTGraphConfig { async_mode: AsyncMode::Sync, ..config };
    let program = HyperBall::new(graph.num_vertices());
    let mut sys = HyTGraphSystem::new(graph, config);
    let run = sys.run(&program);
    // hyt-lint: allow(unwrap-in-lib) -- same poisoning contract as observe_iteration: inconsistent sums must not be reported as results
    let traj = program.trajectory.into_inner().expect("trajectory poisoned");
    let closeness =
        traj.sum_of_distances.iter().map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 }).collect();
    HyperBallResult {
        nf: traj.nf,
        harmonic: traj.harmonic,
        sum_of_distances: traj.sum_of_distances,
        closeness,
        diameter_lower_bound: run.iterations.saturating_sub(1),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hyt_graph::generators;

    #[test]
    fn singleton_estimates_one() {
        // One occupied register always linear-counts to 64·ln(64/63).
        let want = 64.0 * (64.0f64 / 63.0).ln();
        for v in [0u32, 1, 7, 1000, 54_321] {
            let s = HllSketch::singleton(v);
            assert!((s.estimate() - want).abs() < 1e-12, "vertex {v}");
        }
        assert_eq!(HllSketch::empty().estimate(), 0.0);
    }

    #[test]
    fn merge_is_commutative_associative_idempotent() {
        let a = HllSketch::singleton(3);
        let b = HllSketch::singleton(17);
        let c = HllSketch::singleton(91);
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        assert_eq!(a.merge(a), a);
        assert_eq!(a.merge(HllSketch::empty()), a);
    }

    #[test]
    fn estimate_tracks_union_cardinality() {
        // Sketch of {0..n}: within the standard error envelope.
        for n in [32u32, 256, 4096] {
            let mut s = HllSketch::empty();
            for v in 0..n {
                s = s.merge(HllSketch::singleton(v));
            }
            let est = s.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 4.0 * HLL_RSE, "n={n} est={est} rel={rel}");
        }
    }

    /// A changed-register record is a bitmap of one bit per register
    /// plus one byte per changed register, capped at the full sketch.
    #[test]
    fn wire_bytes_since_prices_bitmap_plus_changed_registers() {
        let bitmap = REGISTERS as u64 / 8;
        let empty = HllSketch::empty();
        let one = HllSketch::singleton(7);
        let all = HllSketch::load_lanes(&[0x0101_0101_0101_0101; SKETCH_LANES]);
        assert_eq!(one.wire_bytes_since(&one), bitmap, "unchanged");
        assert_eq!(one.wire_bytes_since(&empty), bitmap + 1, "one raised");
        assert_eq!(all.wire_bytes_since(&empty), HllSketch::WIRE_BYTES, "all raised");
        for (new, old) in [(one, empty), (all, empty), (all, one), (empty, empty)] {
            assert!(new.wire_bytes_since(&old) <= HllSketch::WIRE_BYTES);
        }
    }

    #[test]
    fn nonzero_bytes_counts_each_byte_once() {
        assert_eq!(nonzero_bytes(0), 0);
        assert_eq!(nonzero_bytes(0x80), 1);
        assert_eq!(nonzero_bytes(0x0100_0000_0000_00FF), 2);
        assert_eq!(nonzero_bytes(u64::MAX), 8);
        for k in 0..8 {
            assert_eq!(nonzero_bytes(1 << (8 * k + 7)), 1, "byte {k} high bit");
        }
    }

    #[test]
    fn alpha_matches_the_published_constants() {
        assert_eq!(ALPHA, 0.709);
        // The fitted constant sits within rounding of the closed form
        // `0.7213 / (1 + 1.079/m)` at m = 64.
        let m = REGISTERS as f64;
        assert!((ALPHA - 0.7213 / (1.0 + 1.079 / m)).abs() < 5e-4);
    }

    #[test]
    fn chain_balls_grow_one_hop_per_iteration() {
        let g = generators::chain(6, true);
        let r = run_hyperball(g, HyTGraphConfig::default());
        // nf has one entry per radius (0..=iterations) and never shrinks.
        assert_eq!(r.nf.len(), r.run.iterations as usize + 1);
        for w in r.nf.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // The chain's diameter is 5; register collisions can only end
        // the growth early, never late.
        assert!(r.diameter_lower_bound <= 5);
        assert!(r.run.iterations >= 2);
        // Vertex 0 has no in-neighbours: its ball never grows.
        assert_eq!(r.harmonic[0], 0.0);
        assert_eq!(r.closeness[0], 0.0);
        assert!(r.harmonic[5] > 0.0);
    }

    #[test]
    fn neighbourhood_function_tracks_oracle() {
        let g = generators::rmat(9, 6.0, 3, false);
        let oracle = reference::neighbourhood_function(&g);
        let r = run_hyperball(g, HyTGraphConfig::default());
        // Compare N(t) for every radius both sides computed; summing nv
        // independent-ish counters tightens the per-counter 13% RSE, but
        // ball contents are correlated, so test a loose 4σ envelope.
        let upto = r.nf.len().min(oracle.nf.len());
        for t in 1..upto {
            let rel = (r.nf[t] - oracle.nf[t]).abs() / oracle.nf[t];
            assert!(
                rel < 4.0 * HLL_RSE,
                "t={t} sketch={} exact={} rel={rel}",
                r.nf[t],
                oracle.nf[t]
            );
        }
    }

    #[test]
    fn sketches_are_thread_count_invariant() {
        let g = generators::rmat(8, 6.0, 9, false);
        let run_with = |threads: usize| {
            let cfg = HyTGraphConfig { threads, ..HyTGraphConfig::default() };
            run_hyperball(g.clone(), cfg)
        };
        let a = run_with(1);
        let b = run_with(4);
        assert_eq!(a.run.values, b.run.values, "registers must be bit-identical");
        assert_eq!(a.run.iterations, b.run.iterations);
        assert_eq!(a.nf, b.nf);
    }
}
