//! One module per table/figure of the paper. Each `run` function returns
//! printable [`crate::Table`]s with the same rows/series the paper
//! reports.

pub mod ablation;
pub mod fig10;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hyperball;
pub mod multigpu;
pub mod mutate;
pub mod nvlink;
pub mod perf;
pub mod placement;
pub mod session;
pub mod table1;
pub mod table2;
pub mod table5;
pub mod table6;

use crate::context::Ctx;
use crate::table::Table;

/// Experiment registry entry.
pub struct Experiment {
    /// CLI name (e.g. `fig3a`).
    pub name: &'static str,
    /// What the paper shows there.
    pub about: &'static str,
    /// Runner.
    pub run: fn(&mut Ctx) -> Vec<Table>,
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            about: "GPU memory vs PCIe bandwidth gap (P100..H100)",
            run: table1::run,
        },
        Experiment {
            name: "table2",
            about: "Subway vs EMOGI flip across algorithms/datasets",
            run: table2::run,
        },
        Experiment {
            name: "fig3a",
            about: "active edges vs active partitions under ExpTM-filter (FK)",
            run: fig3::run_a,
        },
        Experiment {
            name: "fig3b",
            about: "per-iteration runtime breakdown of ExpTM-compaction (FK)",
            run: fig3::run_b,
        },
        Experiment {
            name: "fig3c",
            about: "overall breakdown of ExpTM-compaction on 5 graphs (SSSP)",
            run: fig3::run_c,
        },
        Experiment {
            name: "fig3d",
            about: "active edges vs active pages under ImpTM-UM (FK)",
            run: fig3::run_d,
        },
        Experiment {
            name: "fig3e",
            about: "zero-copy throughput vs memory-request granularity",
            run: fig3::run_e,
        },
        Experiment {
            name: "fig3f",
            about: "out-degree distribution of the 5 graphs",
            run: fig3::run_f,
        },
        Experiment {
            name: "fig3gh",
            about: "per-iteration runtime of the 4 approaches + Prefer (FK)",
            run: fig3::run_gh,
        },
        Experiment {
            name: "table5",
            about: "overall runtime: 7 systems x 4 algorithms x 5 graphs",
            run: table5::run,
        },
        Experiment {
            name: "fig7",
            about: "HyTGraph execution path + per-iteration runtimes (FK)",
            run: fig7::run,
        },
        Experiment {
            name: "table6",
            about: "transfer volume / edge volume (PR, SSSP x 5 graphs)",
            run: table6::run,
        },
        Experiment {
            name: "fig8",
            about: "ablation: Hybrid -> +TC -> +TC+CDS speedups",
            run: fig8::run,
        },
        Experiment {
            name: "fig9",
            about: "RMAT size sweep 0.1M..6.4M edges (scaled 0.1B..6.4B)",
            run: fig9::run,
        },
        Experiment { name: "fig10", about: "GPU sweep GTX1080/P100/2080Ti on FS", run: fig10::run },
        Experiment {
            name: "ablation",
            about: "extension: alpha/beta/k/partition/hub sensitivity sweeps",
            run: ablation::run,
        },
        Experiment {
            name: "nvlink",
            about: "extension: bandwidth x topology x link-generation sweep (Sec. VIII)",
            run: nvlink::run,
        },
        Experiment {
            name: "multigpu",
            about: "extension: device-count scaling + interconnect topology exchange breakdown",
            run: multigpu::run,
        },
        Experiment {
            name: "hyperball",
            about: "extension: HyperBall sketch accuracy vs exact oracle + wide-record sharding",
            run: hyperball::run,
        },
        Experiment {
            name: "session",
            about: "extension: resident session service — quotes, coalesced cohorts, mixed stream",
            run: session::run,
        },
        Experiment {
            name: "mutate",
            about: "extension: streaming mutations — delta pricing, incremental repricing, session barrier",
            run: mutate::run,
        },
        Experiment {
            name: "placement",
            about: "extension: skewed mixed-generation D=8 ring, edge-balanced placement",
            run: placement::run,
        },
        Experiment {
            name: "perf",
            about: "extension: machine-readable perf baseline (BENCH_PERF.json)",
            run: perf::run,
        },
    ]
}
