//! Δ-based PageRank (Maiter-style accumulative iteration, reference \[41\]).
//!
//! State per vertex is `(rank, Δ)`: `rank` is settled mass, `Δ` is pending
//! mass not yet pushed to neighbours. An active vertex atomically claims
//! its Δ (folds it into `rank`, zeroes it) and sends `d·Δ/Do(v)` along
//! each out-edge; a receiver adds the message to its Δ and activates when
//! Δ first crosses ε. The fixpoint satisfies
//!
//! ```text
//! rank(v) = (1 − d) + d · Σ_{u→v} rank(u) / Do(u)      (± ε leakage)
//! ```
//!
//! the same unnormalised formulation the paper's PageRank uses. The Δ is
//! exactly the "contribution" signal Δ-driven priority scheduling consumes
//! (Section VI-A), so [`PageRank::priority_mode`] is [`PriorityMode::Delta`].

use hyt_core::api::{EdgeCtx, F32Pair, InitialFrontier, PriorityMode, VertexProgram};
use hyt_core::RunResult;
use hyt_graph::VertexId;

/// Damping factor `d` (the standard 0.85).
pub const DAMPING: f32 = 0.85;

/// Default activation threshold ε for pending Δ.
pub const DEFAULT_EPSILON: f32 = 1.0e-3;

/// Δ-PageRank vertex program.
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    damping: f32,
    epsilon: f32,
}

impl Default for PageRank {
    fn default() -> Self {
        Self::new()
    }
}

impl PageRank {
    /// PageRank with standard damping and [`DEFAULT_EPSILON`].
    pub fn new() -> Self {
        PageRank { damping: DAMPING, epsilon: DEFAULT_EPSILON }
    }

    /// Custom damping / threshold (ablations).
    pub fn with_params(damping: f32, epsilon: f32) -> Self {
        assert!((0.0..1.0).contains(&damping));
        assert!(epsilon > 0.0);
        PageRank { damping, epsilon }
    }

    /// Extract final ranks (settled + residual pending mass) from a run.
    pub fn ranks(result: &RunResult<F32Pair>) -> Vec<f32> {
        result.values.iter().map(|p| p.a + p.b).collect()
    }
}

impl VertexProgram for PageRank {
    type Value = F32Pair;

    fn init(&self, _v: VertexId) -> F32Pair {
        // All mass starts pending: rank 0, Δ = (1 - d).
        F32Pair { a: 0.0, b: 1.0 - self.damping }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn activate(&self, state: F32Pair) -> (F32Pair, F32Pair) {
        // Claim Δ: settle it into rank, scatter the claimed amount.
        (F32Pair { a: state.a + state.b, b: 0.0 }, F32Pair { a: 0.0, b: state.b })
    }

    fn claim_from_snapshot(&self, state: F32Pair, snap: F32Pair) -> (F32Pair, F32Pair) {
        // Settle exactly the snapshot's Δ; anything accumulated since the
        // snapshot stays pending for the next iteration.
        (F32Pair { a: state.a + snap.b, b: state.b - snap.b }, F32Pair { a: 0.0, b: snap.b })
    }

    fn message(&self, seed: F32Pair, ctx: EdgeCtx) -> Option<F32Pair> {
        if seed.b <= 0.0 || ctx.out_degree == 0 {
            return None;
        }
        Some(F32Pair { a: 0.0, b: self.damping * seed.b / ctx.out_degree as f32 })
    }

    fn accumulate(&self, state: F32Pair, msg: F32Pair) -> Option<F32Pair> {
        (msg.b != 0.0).then_some(F32Pair { a: state.a, b: state.b + msg.b })
    }

    fn should_activate(&self, _old: F32Pair, new: F32Pair) -> bool {
        // Re-assert activity whenever pending Δ is significant. Checking a
        // crossing (`old < ε ≤ new`) instead would strand Δ on vertices
        // that receive mass before their own claim within an iteration.
        new.b >= self.epsilon
    }

    fn priority_mode(&self) -> PriorityMode {
        PriorityMode::Delta
    }

    fn delta_of(&self, state: F32Pair) -> f64 {
        state.b.abs() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use hyt_core::{HyTGraphConfig, HyTGraphSystem, SystemKind};
    use hyt_graph::generators;

    fn max_rel_err(got: &[f32], want: &[f64]) -> f64 {
        got.iter().zip(want).map(|(&g, &w)| (g as f64 - w).abs() / w.max(1e-9)).fold(0.0, f64::max)
    }

    #[test]
    fn chain_ranks_match_power_iteration() {
        let g = generators::chain(16, false);
        let oracle = reference::pagerank(&g, DAMPING as f64, 200);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(PageRank::new());
        let ranks = PageRank::ranks(&r);
        assert!(max_rel_err(&ranks, &oracle) < 2e-3, "err {}", max_rel_err(&ranks, &oracle));
    }

    #[test]
    fn rmat_ranks_match_power_iteration() {
        let g = generators::rmat(10, 8.0, 5, false);
        let oracle = reference::pagerank(&g, DAMPING as f64, 300);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(PageRank::new());
        let ranks = PageRank::ranks(&r);
        // ε-bounded truncation: small relative error tolerated.
        assert!(max_rel_err(&ranks, &oracle) < 5e-3, "err {}", max_rel_err(&ranks, &oracle));
    }

    #[test]
    fn all_systems_converge_to_same_ranks() {
        let g = generators::rmat(9, 8.0, 13, false);
        let oracle = reference::pagerank(&g, DAMPING as f64, 300);
        for kind in SystemKind::TABLE5 {
            let cfg = kind.configure(HyTGraphConfig::default());
            let mut sys = HyTGraphSystem::new(g.clone(), cfg);
            let r = sys.run(PageRank::new());
            let ranks = PageRank::ranks(&r);
            let err = max_rel_err(&ranks, &oracle);
            assert!(err < 5e-3, "system {}: err {err}", kind.name());
        }
    }

    #[test]
    fn total_mass_is_conserved_up_to_epsilon() {
        let g = generators::rmat(9, 6.0, 21, false);
        let nv = g.num_vertices() as f64;
        // Dangling vertices leak mass in the unnormalised formulation, so
        // compare against the oracle's total, not the closed form.
        let oracle_total: f64 = reference::pagerank(&g, DAMPING as f64, 300).iter().sum();
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(PageRank::new());
        let total: f64 = PageRank::ranks(&r).iter().map(|&x| x as f64).sum();
        assert!(
            (total - oracle_total).abs() / oracle_total < 1e-2,
            "mass {total} vs oracle {oracle_total} (nv = {nv})"
        );
    }

    #[test]
    fn tighter_epsilon_converges_closer() {
        let g = generators::rmat(8, 6.0, 9, false);
        let oracle = reference::pagerank(&g, DAMPING as f64, 400);
        let run = |eps: f32| {
            let mut sys = HyTGraphSystem::new(g.clone(), HyTGraphConfig::default());
            let r = sys.run(PageRank::with_params(DAMPING, eps));
            max_rel_err(&PageRank::ranks(&r), &oracle)
        };
        let coarse = run(1e-2);
        let fine = run(1e-5);
        assert!(fine <= coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine < 1e-3);
    }
}
