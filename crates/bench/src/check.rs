//! Automated shape-claim verification: `repro check`.
//!
//! The paper's qualitative claims, asserted *in code* on the scaled
//! proxies, so any model or calibration change that breaks a reproduced
//! shape fails loudly instead of silently drifting. Each check returns a
//! [`CheckResult`] with the measured evidence; the committed
//! `BENCH_CHECK.txt` holds every evidence string, and CI diffs a pinned
//! run against it (README, *Verifying*).

use crate::context::{base_config, run_algo, run_algo_with_config, Ctx};
use hyt_algos::AlgoKind;
use hyt_core::{AsyncMode, HyTGraphConfig, Selection, SystemKind};
use hyt_graph::{DatasetId, DegreeStats};
use hyt_sim::GpuModel;

/// Outcome of one shape check.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Which paper claim this verifies.
    pub claim: &'static str,
    /// Whether the shape holds on the proxies.
    pub pass: bool,
    /// Measured evidence, human-readable.
    pub evidence: String,
}

impl CheckResult {
    fn new(claim: &'static str, pass: bool, evidence: String) -> Self {
        CheckResult { claim, pass, evidence }
    }
}

/// Run every shape check (a few minutes; reuses the dataset cache).
pub fn run_all(ctx: &mut Ctx) -> Vec<CheckResult> {
    let mut out = Vec::new();

    // Table I: the bandwidth gap stays wide across four GPU generations.
    let gaps: Vec<f64> = GpuModel::table1_rows().iter().map(|g| g.bandwidth_gap()).collect();
    out.push(CheckResult::new(
        "Table I: GPU-memory/PCIe gap stays ~45-60x from P100 to H100",
        gaps.iter().all(|&g| (45.0..=60.0).contains(&g)),
        format!("gaps {gaps:?}"),
    ));

    // Table II: EMOGI wins SSSP on SK; Subway wins PR on SK.
    {
        let g = ctx.graph(DatasetId::Sk);
        let sub_sssp = run_algo(SystemKind::Subway, AlgoKind::Sssp, &g, base_config()).total_time;
        let emo_sssp = run_algo(SystemKind::Emogi, AlgoKind::Sssp, &g, base_config()).total_time;
        let sub_pr = run_algo(SystemKind::Subway, AlgoKind::PageRank, &g, base_config()).total_time;
        let emo_pr = run_algo(SystemKind::Emogi, AlgoKind::PageRank, &g, base_config()).total_time;
        out.push(CheckResult::new(
            "Table II: the Subway/EMOGI winner flips between SSSP and PR on SK",
            emo_sssp < sub_sssp && sub_pr < emo_pr,
            format!(
                "SSSP: EMOGI {:.2}ms vs Subway {:.2}ms; PR: Subway {:.2}ms vs EMOGI {:.2}ms",
                emo_sssp * 1e3,
                sub_sssp * 1e3,
                sub_pr * 1e3,
                emo_pr * 1e3
            ),
        ));
    }

    // Fig 3(e): zero-copy throughput is monotone in granularity and
    // collapses below half at 32 B.
    {
        let pcie = base_config().machine.pcie;
        let t: Vec<f64> =
            [32u64, 64, 96, 128].iter().map(|&g| pcie.throughput_at_granularity(g)).collect();
        out.push(CheckResult::new(
            "Fig 3(e): zero-copy throughput grows with request size; 32B < half of 128B",
            t.windows(2).all(|w| w[0] < w[1]) && t[0] < 0.5 * t[3],
            format!(
                "32/64/96/128B = {:.1}/{:.1}/{:.1}/{:.1} GB/s",
                t[0] / 1e9,
                t[1] / 1e9,
                t[2] / 1e9,
                t[3] / 1e9
            ),
        ));
    }

    // Fig 3(f): majority of vertices under degree 32 on all five proxies.
    {
        let mut worst = 1.0f64;
        for ds in DatasetId::ALL {
            let s = DegreeStats::compute(&ctx.graph(ds));
            worst = worst.min(s.fraction_below(32));
        }
        out.push(CheckResult::new(
            "Fig 3(f): most vertices have < 32 neighbours on every graph",
            worst > 0.5,
            format!("minimum below-32 fraction across proxies: {:.1}%", worst * 100.0),
        ));
    }

    // Fig 3(g): in sync mode, no single engine wins every SSSP iteration.
    {
        let g = ctx.graph(DatasetId::Fk);
        let engines = [
            Selection::FilterOnly,
            Selection::CompactionOnly,
            Selection::ZeroCopyOnly,
            Selection::UnifiedOnly,
        ];
        let runs: Vec<_> = engines
            .iter()
            .map(|&sel| {
                let cfg = HyTGraphConfig {
                    selection: sel,
                    async_mode: AsyncMode::Sync,
                    contribution_scheduling: false,
                    ..base_config()
                };
                run_algo_with_config(SystemKind::ExpFilter, AlgoKind::Sssp, &g, cfg)
            })
            .collect();
        let iters = runs.iter().map(|r| r.per_iteration.len()).min().unwrap_or(0);
        let mut winners = std::collections::HashSet::new();
        for i in 0..iters {
            let w = (0..runs.len())
                .min_by(|&a, &b| {
                    runs[a].per_iteration[i].time.total_cmp(&runs[b].per_iteration[i].time)
                })
                .unwrap_or(0);
            winners.insert(w);
        }
        out.push(CheckResult::new(
            "Fig 3(g): the per-iteration winner among the 4 approaches changes",
            winners.len() >= 2,
            format!("{} distinct winners over {iters} iterations", winners.len()),
        ));
    }

    // Table V (SSSP): HyTGraph beats Subway, EMOGI and ExpTM-F on every graph.
    {
        let mut pass = true;
        let mut evidence = String::new();
        for ds in DatasetId::ALL {
            let g = ctx.graph(ds);
            let hyt = run_algo(SystemKind::HyTGraph, AlgoKind::Sssp, &g, base_config()).total_time;
            for sys in [SystemKind::Subway, SystemKind::Emogi, SystemKind::ExpFilter] {
                let t = run_algo(sys, AlgoKind::Sssp, &g, base_config()).total_time;
                if hyt > t {
                    pass = false;
                    evidence.push_str(&format!(
                        "{}:{} loses ({:.2} vs {:.2}ms); ",
                        ds.name(),
                        sys.name(),
                        hyt * 1e3,
                        t * 1e3
                    ));
                }
            }
        }
        if evidence.is_empty() {
            evidence = "HyTGraph fastest vs Subway/EMOGI/ExpTM-F on all 5 graphs".into();
        }
        out.push(CheckResult::new("Table V: HyTGraph wins SSSP everywhere", pass, evidence));
    }

    // Table V (PR on SK): unified memory wins because the 4B/edge
    // neighbour array fits in device memory.
    {
        let g = ctx.graph(DatasetId::Sk);
        let um = run_algo(SystemKind::ImpUnified, AlgoKind::PageRank, &g, base_config());
        let others: Vec<f64> = [SystemKind::ExpFilter, SystemKind::Subway, SystemKind::Emogi]
            .iter()
            .map(|&s| run_algo(s, AlgoKind::PageRank, &g, base_config()).total_time)
            .collect();
        out.push(CheckResult::new(
            "Table V: ImpTM-UM wins PR on SK (graph fits device memory once)",
            others.iter().all(|&t| um.total_time < t),
            format!(
                "UM {:.2}ms vs others {:?}ms",
                um.total_time * 1e3,
                others.iter().map(|t| (t * 1e4).round() / 10.0).collect::<Vec<_>>()
            ),
        ));
    }

    // Table VI: HyTGraph transfers less than EMOGI and ExpTM-F (SSSP).
    {
        let mut pass = true;
        let mut evidence = String::new();
        for ds in DatasetId::ALL {
            let g = ctx.graph(ds);
            let hyt =
                run_algo(SystemKind::HyTGraph, AlgoKind::Sssp, &g, base_config()).transfer_ratio();
            let emo =
                run_algo(SystemKind::Emogi, AlgoKind::Sssp, &g, base_config()).transfer_ratio();
            let ef =
                run_algo(SystemKind::ExpFilter, AlgoKind::Sssp, &g, base_config()).transfer_ratio();
            if !(hyt < emo && hyt < ef) {
                pass = false;
            }
            evidence.push_str(&format!("{}: {:.2}/{:.2}/{:.2}X ", ds.name(), hyt, emo, ef));
        }
        out.push(CheckResult::new(
            "Table VI: HyTGraph moves fewer bytes than EMOGI and ExpTM-F (SSSP)",
            pass,
            format!("HyT/EMOGI/ExpF per graph: {evidence}"),
        ));
    }

    // Fig 8: task combining always helps.
    {
        let g = ctx.graph(DatasetId::Tw);
        let base = run_algo(SystemKind::HybridBase, AlgoKind::Sssp, &g, base_config()).total_time;
        let tc = run_algo(SystemKind::HybridTc, AlgoKind::Sssp, &g, base_config()).total_time;
        out.push(CheckResult::new(
            "Fig 8: task combining speeds up the raw hybrid",
            tc < base,
            format!("Hybrid {:.2}ms -> +TC {:.2}ms", base * 1e3, tc * 1e3),
        ));
    }

    // ISSUE 2: sharding across devices is value-transparent — same values
    // and convergence iteration for D in {2, 4} — and the exchange step is
    // actually priced.
    {
        let g = ctx.graph(DatasetId::Fk);
        let src = crate::context::source_vertex(&g);
        let run = |d: usize| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = d;
            cfg.threads = 1; // deterministic host kernels for bit-comparison
            let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg);
            let r = sys.run(hyt_algos::Sssp::from_source(src));
            (r.values, r.iterations, r.counters.exchange_bytes)
        };
        let (v1, i1, x1) = run(1);
        let (v2, i2, x2) = run(2);
        let (v4, i4, x4) = run(4);
        out.push(CheckResult::new(
            "Multi-GPU: D in {2,4} bit-identical to D=1 (SSSP on FK), exchange priced",
            v1 == v2 && v1 == v4 && i1 == i2 && i1 == i4 && x1 == 0 && x2 > 0 && x4 > x2,
            format!(
                "iterations {i1}/{i2}/{i4}, exchange bytes {x1}/{x2}/{x4}, values match: {}",
                v1 == v2 && v1 == v4
            ),
        ));
    }

    // ISSUE 25: the edge-balanced placement deals aligned runs of
    // COMBINE_RUN partitions, so a combined filter task stays one copy on
    // one device instead of being sliced per partition: at D in {4, 8}
    // (TW PageRank, host-only) the scheduled units stay within 1.3x of
    // D=1's (the one-at-a-time deal measured 3.78x / 3.84x), with values
    // and iterations bit-identical.
    {
        const MAX_UNIT_GROWTH: f64 = 1.3;
        let g = ctx.graph(DatasetId::Tw);
        let run = |d: usize| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = d;
            cfg.threads = 1;
            let r = hyt_core::HyTGraphSystem::new(g.clone(), cfg).run(hyt_algos::PageRank::new());
            let units: u64 = r.per_iteration.iter().map(|it| it.tasks as u64).sum();
            (hyt_algos::PageRank::ranks(&r), r.iterations, units)
        };
        let (v1, i1, u1) = run(1);
        let mut pass = true;
        let mut evidence = format!("D=1: {u1} units; ");
        for d in [4usize, 8] {
            let (v, i, u) = run(d);
            let growth = u as f64 / u1 as f64;
            let identical = v == v1 && i == i1;
            pass &= growth <= MAX_UNIT_GROWTH && identical;
            evidence.push_str(&format!(
                "D={d}: {u} units ({growth:.2}x), values/iters match D=1: {identical}; "
            ));
        }
        out.push(CheckResult::new(
            "Sharding keeps combined runs whole: TW/PR units <= 1.3x D=1 at D in {4,8}",
            pass,
            evidence,
        ));
    }

    // ISSUE 3: NVLink-style peer links strictly shrink the frontier
    // exchange. On a generated power-law graph, the ring topology must
    // beat host-only at D in {4, 8} while values and iterations stay
    // identical (routing may only change the timeline).
    {
        // Large enough that all 8 devices own shards (>= 8 partitions at
        // the default 32 KB budget), so D = 8 is a real 8-way exchange.
        let g = hyt_graph::generators::power_law_preferential(1 << 14, 12.0, 2.2, 7, true);
        let src = crate::context::source_vertex(&g);
        let run = |d: usize, topo: hyt_core::TopologyKind| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = d;
            cfg.topology = topo;
            cfg.threads = 1;
            let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg);
            let r = sys.run(hyt_algos::Sssp::from_source(src));
            let exchange: f64 = r.per_iteration.iter().map(|it| it.exchange.time).sum();
            (r.values, r.iterations, exchange)
        };
        let mut pass = true;
        let mut evidence = String::new();
        for d in [4usize, 8] {
            let (vh, ih, xh) = run(d, hyt_core::TopologyKind::HostOnly);
            let (vr, ir, xr) = run(d, hyt_core::TopologyKind::Ring);
            pass &= xr < xh && vh == vr && ih == ir;
            evidence.push_str(&format!(
                "D={d}: exchange {:.3}ms -> ring {:.3}ms, values/iters match: {}; ",
                xh * 1e3,
                xr * 1e3,
                vh == vr && ih == ir
            ));
        }
        out.push(CheckResult::new(
            "Interconnect: ring topology strictly cuts exchange time at D in {4,8}",
            pass,
            evidence,
        ));
    }

    // ISSUE 4: each direction of a peer link owns its own queue, so the
    // symmetric legs of the ring exchange overlap: the all-active
    // exchange of a D in {4, 8} ring system must price strictly below
    // its busiest link's total wire occupancy (forward + reverse busy —
    // the figure one shared queue per link would have priced), while
    // values and iterations match the single-device run (queueing is
    // never a semantic change).
    {
        let g = hyt_graph::generators::power_law_preferential(1 << 14, 12.0, 2.2, 7, true);
        let src = crate::context::source_vertex(&g);
        let run = |d: usize| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = d;
            cfg.topology = hyt_core::TopologyKind::Ring;
            cfg.threads = 1;
            let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg);
            let mut owned = vec![0u64; d];
            for v in 0..g.num_vertices() {
                let dev = sys.device_plan().device_of(sys.graph().owner_of(v));
                owned[dev as usize] += hyt_core::runner::EXCHANGE_RECORD_BYTES;
            }
            let ic = sys.interconnect();
            let report = ic.price_all_gather(&owned, &vec![true; d]);
            let busiest_peer =
                report.per_link_busy[ic.num_host_ports()..].iter().copied().fold(0.0, f64::max);
            let r = sys.run(hyt_algos::Sssp::from_source(src));
            (r.values, r.iterations, report.makespan, busiest_peer)
        };
        let (v1, i1, ..) = run(1);
        let mut pass = true;
        let mut evidence = String::new();
        for d in [4usize, 8] {
            let (v, i, makespan, shared) = run(d);
            pass &= makespan < shared && v == v1 && i == i1;
            evidence.push_str(&format!(
                "D={d}: busiest link occupancy {:.3}us -> per-direction queues {:.3}us, \
                 values/iters match D=1: {}; ",
                shared * 1e6,
                makespan * 1e6,
                v == v1 && i == i1
            ));
        }
        out.push(CheckResult::new(
            "Duplex: the ring exchange prices strictly below its busiest link's two-way occupancy at D in {4,8}",
            pass,
            evidence,
        ));
    }

    // ISSUE 4: routing is cost-aware per link — on a uniform D=8 ring
    // every pair rides the peer fabric (direct or forwarded), but
    // derating one bridge to 2 GB/s must shift its pair back to host
    // staging (the detour and the slow hop both price above two host
    // legs), with values unchanged. PageRank drives it: its dense
    // batches stay on the bulk route rung where host staging wins for
    // the slow pair, while an SSSP frontier's batches, once dense ones
    // ship a vertex bitmap, fit the rungs below it, where the pair keeps
    // to the peer fabric.
    {
        use hyt_core::{LinkSpec, Route};
        let g = hyt_graph::generators::power_law_preferential(1 << 14, 12.0, 2.2, 7, true);
        let run = |overrides: Vec<(u32, u32, LinkSpec)>| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = 8;
            cfg.topology = hyt_core::TopologyKind::Ring;
            cfg.link_overrides = overrides;
            cfg.threads = 1;
            let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg);
            let staged = matches!(
                sys.interconnect().route(0, 1, hyt_sim::ROUTE_PROBE_BYTES),
                Route::HostStaged
            );
            let r = sys.run(hyt_algos::PageRank::new());
            let mut x = hyt_core::ExchangeStats::default();
            for it in &r.per_iteration {
                x.merge(&it.exchange);
            }
            (r.values, staged, x)
        };
        let slow_spec = LinkSpec::with_nominal_bw(2.0e9).scaled(crate::context::SCALE_SHIFT);
        let (v_uni, staged_uni, x_uni) = run(Vec::new());
        let (v_slow, staged_slow, x_slow) = run(vec![(0, 1, slow_spec)]);
        out.push(CheckResult::new(
            "Routing: a slow mixed-generation bridge flips its pair back to host staging",
            !staged_uni
                && x_uni.host_bytes == 0
                && staged_slow
                && x_slow.host_bytes > 0
                && v_uni == v_slow,
            format!(
                "uniform ring: (0,1) host-staged={staged_uni}, host KB {:.1}, fwd KB {:.1}; \
                 slow bridge: (0,1) host-staged={staged_slow}, host KB {:.1}, fwd KB {:.1}; \
                 values match: {}",
                x_uni.host_bytes as f64 / 1024.0,
                x_uni.forwarded_bytes as f64 / 1024.0,
                x_slow.host_bytes as f64 / 1024.0,
                x_slow.forwarded_bytes as f64 / 1024.0,
                v_uni == v_slow
            ),
        ));
    }

    // Fig 9: Grus degrades far faster than HyTGraph across the size sweep.
    {
        let sweep = hyt_graph::datasets::rmat_sweep();
        let (first, last) = (&sweep[0].1, &sweep[sweep.len() - 1].1);
        let growth = |sys: SystemKind| {
            let a = run_algo(sys, AlgoKind::Sssp, first, base_config()).total_time;
            let b = run_algo(sys, AlgoKind::Sssp, last, base_config()).total_time;
            b / a
        };
        let grus = growth(SystemKind::Grus);
        let hyt = growth(SystemKind::HyTGraph);
        out.push(CheckResult::new(
            "Fig 9: Grus's runtime grows much faster than HyTGraph's over 64x size",
            grus > 1.5 * hyt,
            format!("growth Grus {grus:.0}X vs HyTGraph {hyt:.0}X"),
        ));
    }

    // ISSUE 6: the HyperBall sketch tracks the exact neighbourhood
    // function within standard HLL error bounds (4 sigma of 1.04/sqrt(64)
    // per radius) against the all-pairs-BFS oracle, and the diameter
    // lower bound never exceeds the true diameter.
    {
        use hyt_algos::hyperball::{run_hyperball, HLL_RSE};
        let g = hyt_graph::generators::rmat(10, 8.0, 21, false);
        let oracle = hyt_algos::reference::neighbourhood_function(&g);
        let r = run_hyperball(g, base_config());
        let upto = r.nf.len().min(oracle.nf.len());
        let mut worst = 0.0f64;
        for t in 1..upto {
            worst = worst.max((r.nf[t] - oracle.nf[t]).abs() / oracle.nf[t]);
        }
        out.push(CheckResult::new(
            "HyperBall: sketched N(t) within 4-sigma HLL error of the exact oracle",
            upto >= 2 && worst < 4.0 * HLL_RSE && r.diameter_lower_bound <= oracle.diameter,
            format!(
                "worst relative error {:.1}% over {} radii (budget {:.1}%); \
                 diameter bound {} <= exact {}",
                worst * 100.0,
                upto.saturating_sub(1),
                4.0 * HLL_RSE * 100.0,
                r.diameter_lower_bound,
                oracle.diameter
            ),
        ));
    }

    // ISSUE 6: value width is a first-class pricing input — the 56-byte
    // compaction surplus of a 64-byte sketch makes formula (2) lose a
    // partition that narrow 8-byte values win (ExpCompaction flips to
    // ImpZeroCopy), and the exchange record grows from 12 to 68 bytes.
    {
        use hyt_core::api::ValueLayout;
        use hyt_core::select::select_engines;
        use hyt_core::{EngineKind, SelectParams, Selection};
        use hyt_engines::PartitionActivity;
        let a = PartitionActivity {
            partition: 0,
            active_vertices: (0..2_000).collect(),
            active_edges: 4_000,
            total_edges: 200_000,
            zc_requests: 2_000,
        };
        let pcie = hyt_sim::PcieModel::pcie3();
        let acts = std::slice::from_ref(&a);
        let narrow_params = SelectParams::default();
        let narrow = select_engines(acts, &pcie, 4, Selection::Hybrid, &narrow_params)[0].1;
        let sketch = ValueLayout { lanes: 8, wire_bytes: 64 };
        let wide_params =
            SelectParams { value_surplus: sketch.compaction_surplus(), ..SelectParams::default() };
        let wide = select_engines(acts, &pcie, 4, Selection::Hybrid, &wide_params)[0].1;
        out.push(CheckResult::new(
            "Width-aware pricing: a 64B sketch flips an engine choice 8B values keep",
            narrow == EngineKind::ExpCompaction
                && wide == EngineKind::ImpZeroCopy
                && sketch.record_bytes() == 68
                && ValueLayout::narrow().record_bytes() == 12,
            format!(
                "2000 active vertices / 4000 of 200k edges: narrow -> {narrow:?}, \
                 +{}B surplus -> {wide:?}; exchange records {} B vs {} B",
                sketch.compaction_surplus(),
                ValueLayout::narrow().record_bytes(),
                sketch.record_bytes()
            ),
        ));
    }

    // ISSUE 26: the wide exchange ships only changed registers — a sync
    // HyperBall record is id + register bitmap + the registers that rose,
    // so on SK at D=8 the priced payload stays under 0.7x what the same
    // records cost at the full 68 bytes, with registers bit-identical to
    // D=1.
    {
        use hyt_algos::hyperball::run_hyperball;
        const MAX_SHARE: f64 = 0.7;
        let g = ctx.graph(DatasetId::Sk);
        let run = |d: usize| {
            let mut cfg = SystemKind::HyTGraph.configure(base_config());
            cfg.num_devices = d;
            cfg.threads = 1;
            run_hyperball(g.clone(), cfg).run
        };
        let (r1, r8) = (run(1), run(8));
        let records: u64 = r8.per_iteration.iter().map(|it| it.exchange.records).sum();
        let full = records * r8.value_layout.record_bytes();
        let shipped = r8.counters.exchange_bytes;
        let share = shipped as f64 / full as f64;
        let identical = r1.values == r8.values;
        out.push(CheckResult::new(
            "Wide exchange ships changed registers only: SK/HB D=8 bytes < 0.7x full records",
            records > 0 && share < MAX_SHARE && identical,
            format!(
                "{records} records: {:.2} MB shipped vs {:.2} MB as full {} B records \
                 ({share:.2}x); registers match D=1: {identical}",
                shipped as f64 / 1e6,
                full as f64 / 1e6,
                r8.value_layout.record_bytes()
            ),
        ));
    }

    // ISSUE 7: coalescing — batching 8 hub-anchored traversals into one
    // multi-source run answers every lane bit-identically to the serial
    // run it replaces AND strictly cuts the total exchanged payload
    // bytes on a skewed graph sharded over an 8-device ring. The saving
    // comes from temporal overlap: one `4 + 4·8`-byte record wherever
    // several serial runs would each ship `4 + 4` for the same vertex in
    // the same iteration, and hub frontiers overlap almost fully.
    {
        use hyt_algos::{lane_values, Bfs, MultiBfs};
        let g = hyt_graph::generators::power_law_preferential(1 << 12, 12.0, 2.2, 7, false);
        let mut by_degree: Vec<(u64, u32)> =
            (0..g.num_vertices()).map(|v| (g.out_degree(v), v)).collect();
        by_degree.sort_unstable_by(|a, b| b.cmp(a));
        let mut srcs = [0u32; 8];
        for (slot, &(_, v)) in srcs.iter_mut().zip(by_degree.iter()) {
            *slot = v;
        }
        let cfg = || {
            let mut c = SystemKind::HyTGraph.configure(base_config());
            c.num_devices = 8;
            c.topology = hyt_core::TopologyKind::Ring;
            c.threads = 1;
            c
        };
        let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg());
        let r = sys.run(MultiBfs::from_sources(srcs));
        let batched_bytes = r.counters.exchange_bytes;
        let mut serial_bytes = 0u64;
        let mut identical = true;
        for (k, &s) in srcs.iter().enumerate() {
            let mut sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg());
            let sr = sys.run(Bfs::from_source(s));
            identical &= lane_values(&r.values, k) == sr.values;
            serial_bytes += sr.counters.exchange_bytes;
        }
        out.push(CheckResult::new(
            "Coalescing: 8 batched hub traversals lane-identical to serial, fewer exchange bytes",
            identical && batched_bytes > 0 && batched_bytes < serial_bytes,
            format!(
                "batched {batched_bytes} B vs serial total {serial_bytes} B \
                 ({:.2}x); all 8 lanes match their serial run: {identical}",
                batched_bytes as f64 / serial_bytes as f64
            ),
        ));
    }

    // ISSUE 7: the resident session service — cost-model-priced admission
    // (shipping weights prices strictly dearer), one coalesced cohort for
    // compatible traversals, and per-request demux that matches fresh
    // serial systems bit-for-bit at an amortised per-request exchange
    // share.
    {
        use hyt_algos::{AlgoBackend, Bfs};
        use hyt_core::session::{Admission, QueryKind, QueryOutput, SessionConfig};
        use hyt_core::SessionService;
        let g = hyt_graph::generators::rmat(9, 8.0, 21, true);
        let cfg = || {
            let mut c = SystemKind::HyTGraph.configure(base_config());
            c.num_devices = 4;
            c.topology = hyt_core::TopologyKind::Ring;
            c.threads = 1;
            c
        };
        let scfg = SessionConfig { max_batch: 4, admission_budget: f64::INFINITY, max_queue: 16 };
        let sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg());
        let mut svc = SessionService::new(sys, AlgoBackend, scfg);
        let bfs_q = svc.quote(&QueryKind::Bfs(0)).sweep_rtt;
        let sssp_q = svc.quote(&QueryKind::Sssp(0)).sweep_rtt;
        let sources = [3u32, 17, 44, 120];
        let admitted = sources
            .iter()
            .all(|&v| matches!(svc.submit(QueryKind::Bfs(v)), Admission::Admitted { .. }));
        let done = svc.drain();
        let mut identical = admitted && done.len() == 4;
        let mut coalesced = identical;
        for (q, &v) in done.iter().zip(sources.iter()) {
            let mut fresh = hyt_core::HyTGraphSystem::new(g.clone(), cfg());
            identical &= q.output == QueryOutput::Distances(fresh.run(Bfs::from_source(v)).values);
            coalesced &= q.stats.batch_width == 4;
        }
        let share = done.first().map_or(f64::MAX, |q| q.stats.exchange_share_bytes);
        let solo = {
            let sys = hyt_core::HyTGraphSystem::new(g.clone(), cfg());
            let mut solo_svc = SessionService::new(sys, AlgoBackend, scfg);
            solo_svc.submit(QueryKind::Bfs(sources[0]));
            solo_svc.drain()[0].stats.exchange_share_bytes
        };
        out.push(CheckResult::new(
            "Session service: priced admission, one width-4 cohort, per-request demux exact",
            bfs_q > 0.0 && sssp_q > bfs_q && identical && coalesced && share < solo,
            format!(
                "quotes: BFS {bfs_q:.1} vs SSSP {sssp_q:.1} RTTs; 4 queries rode one width-4 \
                 cohort: {coalesced}; answers match fresh serial systems: {identical}; \
                 per-request exchange share {share:.0} B vs {solo:.0} B running alone"
            ),
        ));
    }

    // ISSUE 10: incremental reactivation — a localized mutation batch
    // dirties strictly fewer partitions than the whole graph holds, the
    // next sweep reprices exactly those (a cold system reprices all of
    // them), and the reactivation frontier is exactly the touched
    // endpoints rather than every vertex.
    {
        use hyt_core::ValueLayout;
        use hyt_graph::MutationBatch;
        let g = hyt_graph::generators::rmat(11, 10.0, 7, true);
        let cfg = HyTGraphConfig { contribution_scheduling: false, ..base_config() };
        let mut sys = hyt_core::HyTGraphSystem::new(g, cfg);
        let total = sys.num_partitions() as u64;
        let layout = ValueLayout::of::<u32>();
        sys.price_full_sweep(true, layout);
        let cold = sys.sweep_repriced();
        let mut batch = MutationBatch::new();
        batch.insert_weighted(0, 1, 3).insert_weighted(1, 0, 9);
        // hyt-lint: allow(unwrap-in-lib) -- inserting fresh edges between vertices 0 and 1 cannot fail
        let rep = sys.apply_mutations(&batch).unwrap();
        let before = sys.sweep_repriced();
        sys.price_full_sweep(true, layout);
        let incremental = sys.sweep_repriced() - before;
        out.push(CheckResult::new(
            "Streaming mutations: a localized batch reprices strictly fewer partitions than cold",
            cold == total
                && (rep.dirty_partitions.len() as u64) < total
                && incremental == rep.dirty_partitions.len() as u64
                && rep.reactivated == vec![0, 1],
            format!(
                "cold sweep priced {cold}/{total} partitions; batch dirtied {:?}; next sweep \
                 repriced {incremental}; reactivation frontier {:?}",
                rep.dirty_partitions, rep.reactivated
            ),
        ));
    }

    // ISSUE 10: the priced compaction trigger — across a delete-heavy
    // stream, every batch report satisfies `compacted == (delta_surplus
    // x COMPACTION_HORIZON_ITERS > fold_cost)` exactly, the fold trips
    // at least once, and the fold leaves no delta segments behind.
    {
        use hyt_core::COMPACTION_HORIZON_ITERS;
        use hyt_graph::MutationBatch;
        let base = {
            let g = hyt_graph::generators::rmat(9, 8.0, 21, true);
            let mut el = hyt_graph::EdgeList::new(g.num_vertices());
            for v in 0..g.num_vertices() {
                for (i, &d) in g.neighbors(v).iter().enumerate() {
                    el.push_weighted(v, d, g.weights_of(v)[i]);
                }
            }
            el.dedup();
            el.to_csr()
        };
        let mut keys: Vec<(u32, u32)> = (0..base.num_vertices())
            .flat_map(|v| base.neighbors(v).iter().map(move |&d| (v, d)))
            .collect();
        let mut sys = hyt_core::HyTGraphSystem::new(base, base_config());
        let mut rng = 0x600du64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as usize
        };
        let mut exact = true;
        let mut first_trip = None;
        let mut clean_after_fold = true;
        for round in 0..20 {
            let mut batch = MutationBatch::new();
            for _ in 0..keys.len().min(40) {
                let (s, d) = keys.swap_remove(next() % keys.len());
                batch.delete(s, d);
            }
            // hyt-lint: allow(unwrap-in-lib) -- every scripted delete targets a still-present edge
            let rep = sys.apply_mutations(&batch).unwrap();
            exact &=
                rep.compacted == (rep.delta_surplus * COMPACTION_HORIZON_ITERS > rep.fold_cost);
            if rep.compacted {
                first_trip.get_or_insert(round);
                clean_after_fold &=
                    sys.graph().delta_partitions().is_empty() && sys.delta_surplus() == 0.0;
            }
        }
        out.push(CheckResult::new(
            "Streaming mutations: compaction fires exactly when surplus x horizon beats the fold",
            exact && first_trip.is_some() && clean_after_fold,
            format!(
                "20 delete-heavy batches: trigger identity held on every report ({exact}); \
                 first fold at round {first_trip:?}; delta segments empty after each fold: \
                 {clean_after_fold}"
            ),
        ));
    }

    // Interleaving checker, faithful model: the DFS explorer genuinely
    // branches over the canonical 2-thread × 3-op wide-value scenario
    // (at least the 20 = C(6,3) op-level thread orderings) and finds no
    // violation of invariants V1/V2/V4/V5 (crates/core/src/api.rs,
    // "Numbered invariants") on any schedule.
    {
        use hyt_lint::interleave::{explore, Mutation, Scenario};
        let sc = Scenario::wide_contract();
        match explore(&sc) {
            Ok(stats) => out.push(CheckResult::new(
                "Interleave checker: wide-value contract holds on every bounded schedule",
                stats.schedules >= 20,
                format!(
                    "{} schedules, {} states, {} micro-steps explored; zero violations of \
                     V1/V2/V4/V5",
                    stats.schedules, stats.states, stats.steps
                ),
            )),
            Err(v) => out.push(CheckResult::new(
                "Interleave checker: wide-value contract holds on every bounded schedule",
                false,
                format!("{} violated: {}", v.invariant, v.detail),
            )),
        }

        // Seeded bug: the same scenario with the stripe lock skipped
        // must be caught (V2 lost/torn update or V4 exclusion breach)
        // in under 1000 schedules — the checker has teeth.
        let mut broken = sc;
        broken.mutation = Mutation::SkipStripeLock;
        match explore(&broken) {
            Err(v) => out.push(CheckResult::new(
                "Interleave checker: stripe-lock-skipped store model is caught quickly",
                (v.invariant == "V2" || v.invariant == "V4") && v.schedules_before < 1000,
                format!(
                    "{} violated after {} schedules: {}",
                    v.invariant, v.schedules_before, v.detail
                ),
            )),
            Ok(stats) => out.push(CheckResult::new(
                "Interleave checker: stripe-lock-skipped store model is caught quickly",
                false,
                format!("broken model passed {} schedules undetected", stats.schedules),
            )),
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_checks_pass() {
        // Only the static checks here (full run is exercised via `repro
        // check` and the integration suite).
        let gaps: Vec<f64> = GpuModel::table1_rows().iter().map(|g| g.bandwidth_gap()).collect();
        assert!(gaps.iter().all(|&g| (45.0..=60.0).contains(&g)));
    }
}
