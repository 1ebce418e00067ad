//! Penalised hitting probability (PHP) — the second Δ-accumulative
//! algorithm the paper names for Δ-driven scheduling (Section VI-A,
//! reference \[41\], Maiter).
//!
//! PHP measures proximity to a source vertex `s`: a random walk starts at
//! `s` and at each step moves to an out-neighbour with probability
//! proportional to edge weight, *penalised* by a decay `d` per hop; the
//! walk is absorbed if it returns to `s`. The score of `v ≠ s` is the
//! penalised probability of hitting `v`:
//!
//! ```text
//! php(v) = d · Σ_{u→v, u≠s-absorbing} php(u) · w(u,v) / W(u),  php(s) = 1
//! ```
//!
//! where `W(u)` is `u`'s total out-weight. The Δ-accumulative formulation
//! is PageRank-shaped with weight-normalised messages and an absorbing
//! source (messages into `s` are dropped), so it exercises the
//! [`VertexProgram::NEEDS_WEIGHTED_DEGREE`] extension point.

use hyt_core::api::{EdgeCtx, F32Pair, InitialFrontier, PriorityMode, VertexProgram};
use hyt_core::RunResult;
use hyt_graph::VertexId;

/// Per-hop decay factor `d`.
pub const DECAY: f32 = 0.8;

/// Default activation threshold ε.
pub const DEFAULT_EPSILON: f32 = 1.0e-5;

/// Sentinel settled-score marking the absorbing source state.
const ABSORBING: f32 = f32::INFINITY;

/// PHP vertex program.
#[derive(Clone, Copy, Debug)]
pub struct Php {
    source: VertexId,
    decay: f32,
    epsilon: f32,
}

impl Php {
    /// PHP from `source` with default decay and threshold.
    pub fn from_source(source: VertexId) -> Self {
        Php { source, decay: DECAY, epsilon: DEFAULT_EPSILON }
    }

    /// Custom decay / threshold.
    pub fn with_params(source: VertexId, decay: f32, epsilon: f32) -> Self {
        assert!((0.0..1.0).contains(&decay));
        assert!(epsilon > 0.0);
        Php { source, decay, epsilon }
    }

    /// The configured source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Extract final scores; the absorbing source reports 1.
    pub fn scores(result: &RunResult<F32Pair>) -> Vec<f32> {
        result.values.iter().map(|p| if p.a == ABSORBING { 1.0 } else { p.a + p.b }).collect()
    }
}

impl VertexProgram for Php {
    type Value = F32Pair;

    const NEEDS_WEIGHTED_DEGREE: bool = true;
    const NEEDS_WEIGHTS: bool = true;

    fn init(&self, v: VertexId) -> F32Pair {
        if v == self.source {
            // Absorbing: score pinned, initial Δ = 1 to seed the walk.
            F32Pair { a: ABSORBING, b: 1.0 }
        } else {
            F32Pair { a: 0.0, b: 0.0 }
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Set(vec![self.source])
    }

    fn activate(&self, state: F32Pair) -> (F32Pair, F32Pair) {
        if state.a == ABSORBING {
            // The source scatters its pending Δ but keeps the sentinel.
            (F32Pair { a: ABSORBING, b: 0.0 }, F32Pair { a: 0.0, b: state.b })
        } else {
            (F32Pair { a: state.a + state.b, b: 0.0 }, F32Pair { a: 0.0, b: state.b })
        }
    }

    fn claim_from_snapshot(&self, state: F32Pair, snap: F32Pair) -> (F32Pair, F32Pair) {
        let seed = F32Pair { a: 0.0, b: snap.b };
        if state.a == ABSORBING {
            (F32Pair { a: ABSORBING, b: state.b - snap.b }, seed)
        } else {
            (F32Pair { a: state.a + snap.b, b: state.b - snap.b }, seed)
        }
    }

    fn message(&self, seed: F32Pair, ctx: EdgeCtx) -> Option<F32Pair> {
        if seed.b <= 0.0 || ctx.weighted_degree == 0 {
            return None;
        }
        let share = ctx.weight as f32 / ctx.weighted_degree as f32;
        Some(F32Pair { a: 0.0, b: self.decay * seed.b * share })
    }

    fn accumulate(&self, state: F32Pair, msg: F32Pair) -> Option<F32Pair> {
        if state.a == ABSORBING {
            return None; // walks hitting the source are absorbed
        }
        (msg.b != 0.0).then_some(F32Pair { a: state.a, b: state.b + msg.b })
    }

    fn should_activate(&self, _old: F32Pair, new: F32Pair) -> bool {
        // See `PageRank::should_activate`: threshold, not crossing.
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

    fn max_abs_err(got: &[f32], want: &[f64]) -> f64 {
        got.iter().zip(want).map(|(&g, &w)| (g as f64 - w).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn source_reports_one() {
        let g = generators::chain(8, true);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Php::from_source(0));
        let s = Php::scores(&r);
        assert_eq!(s[0], 1.0);
        // Chain with uniform weights: score decays by d per hop.
        assert!((s[1] - DECAY).abs() < 1e-4);
        assert!((s[2] - DECAY * DECAY).abs() < 1e-4);
    }

    #[test]
    fn weighted_rmat_matches_reference() {
        let g = generators::rmat(9, 8.0, 7, true);
        let oracle = reference::php(&g, 0, DECAY as f64, 200);
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Php::from_source(0));
        let err = max_abs_err(&Php::scores(&r), &oracle);
        assert!(err < 1e-3, "err {err}");
    }

    #[test]
    fn absorbing_source_blocks_return_mass() {
        // Cycle 0 -> 1 -> 2 -> 0: mass entering 0 must vanish, so scores
        // are exactly d, d^2 with no cycle amplification.
        let mut b = hyt_graph::CsrBuilder::new(3, true);
        b.add_weighted_edge(0, 1, 1);
        b.add_weighted_edge(1, 2, 1);
        b.add_weighted_edge(2, 0, 1);
        let g = b.build();
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Php::from_source(0));
        let s = Php::scores(&r);
        assert!((s[1] - DECAY).abs() < 1e-5);
        assert!((s[2] - DECAY * DECAY).abs() < 1e-5);
    }

    #[test]
    fn weight_normalisation_splits_mass() {
        // 0 -> 1 (w 3), 0 -> 2 (w 1): shares 0.75 / 0.25 of d.
        let mut b = hyt_graph::CsrBuilder::new(3, true);
        b.add_weighted_edge(0, 1, 3);
        b.add_weighted_edge(0, 2, 1);
        let g = b.build();
        let mut sys = HyTGraphSystem::new(g, HyTGraphConfig::default());
        let r = sys.run(Php::from_source(0));
        let s = Php::scores(&r);
        assert!((s[1] - DECAY * 0.75).abs() < 1e-5);
        assert!((s[2] - DECAY * 0.25).abs() < 1e-5);
    }

    #[test]
    fn all_systems_agree() {
        let g = generators::power_law_local(800, 8.0, 1.8, 0.5, 20, 6, true);
        let oracle = reference::php(&g, 3, DECAY as f64, 200);
        for kind in SystemKind::TABLE5 {
            let cfg = kind.configure(HyTGraphConfig::default());
            let mut sys = HyTGraphSystem::new(g.clone(), cfg);
            let r = sys.run(Php::from_source(3));
            let err = max_abs_err(&Php::scores(&r), &oracle);
            assert!(err < 1e-3, "system {}: err {err}", kind.name());
        }
    }
}
