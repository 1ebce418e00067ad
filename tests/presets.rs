//! Golden prices for every system preset.
//!
//! `BENCH_PERF.json` pins HyTGraph's prices only, and `repro check` pins
//! orders between systems, so a change that moves a baseline's price
//! without flipping an order shows nowhere else. This test runs every
//! [`SystemKind`] on SSSP (a small weighted R-MAT) and PageRank, each
//! under three device setups:
//!
//! * `fits`: one card that holds the whole graph, so HyTGraph loads each
//!   partition once and Grus pins everything it touches;
//! * `half`: one card that holds about half of the program's edge data,
//!   so HyTGraph keeps nothing, Grus overflows to zero-copy and the
//!   unified-memory cache evicts;
//! * `d4 tenth`: four host-only devices, each card holding a tenth of the
//!   program's edge data, so no device's share fits and every combined
//!   task whose members span devices is priced as several device slices,
//!   recompute passes included.
//!
//! Each run is one line: iterations, `total_time` bits, every transfer
//! counter, the run's engine mix and an FNV-1a digest of the values. The
//! lines must equal [`GOLDEN`] exactly; a change that moves a price on
//! purpose regenerates them from the failure message and says why.
//! Single-threaded, so every run is bit-reproducible.

use hytgraph::core::api::{ValueLayout, VertexProgram, VertexValue};
use hytgraph::core::{EngineMix, HyTGraphConfig, HyTGraphSystem, RunResult, SystemKind};
use hytgraph::graph::generators;
use hytgraph::prelude::*;

const SYSTEMS: [SystemKind; 9] = [
    SystemKind::HyTGraph,
    SystemKind::HybridBase,
    SystemKind::HybridTc,
    SystemKind::ExpFilter,
    SystemKind::Subway,
    SystemKind::Emogi,
    SystemKind::Grus,
    SystemKind::ImpUnified,
    SystemKind::CpuGalois,
];

/// 4096 vertices, about 32k weighted edges, cut into 8 KiB partitions.
fn graph() -> Csr {
    generators::rmat(12, 8.0, 7, true)
}

/// `system` on `g` over `devices` cards that each hold `share` of the
/// program's edge data (`None`: the whole graph fits many times over).
fn run<P: VertexProgram>(
    g: &Csr,
    system: SystemKind,
    devices: usize,
    share: Option<f64>,
    program: P,
) -> RunResult<P::Value> {
    let mut cfg = system.configure(HyTGraphConfig::default());
    cfg.threads = 1;
    cfg.num_devices = devices;
    cfg.partition_bytes = 8 << 10;
    cfg.machine.edge_budget = 1 << 30;
    if let Some(share) = share {
        // The runner's card: (edge_budget − |V|·state bytes) · um_utilization.
        let probe = HyTGraphSystem::new(g.clone(), cfg.clone());
        let state = g.num_vertices() as u64 * ValueLayout::of::<P::Value>().state_bytes();
        let edges = probe.effective_edge_bytes::<P>() as f64 * share;
        cfg.machine.edge_budget = state + (edges / cfg.machine.um_utilization) as u64;
    }
    HyTGraphSystem::new(g.clone(), cfg).run(program)
}

/// One run as a golden line.
fn line<V: VertexValue>(name: &str, r: &RunResult<V>) -> String {
    let c = &r.counters;
    let counters = [
        c.explicit_bytes,
        c.zero_copy_bytes,
        c.um_bytes,
        c.tlps,
        c.page_faults,
        c.kernel_edges,
        c.compaction_bytes,
        c.kernel_launches,
        c.exchange_bytes,
    ];
    let m = EngineMix::sum_over(&r.per_iteration);
    let mix = [m.filter, m.compaction, m.zero_copy, m.unified, m.held, m.load];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in &r.values {
        for byte in v.to_bits().to_le_bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "{name}: it={} time={:#018x} counters={counters:?} mix={mix:?} values={digest:#018x}",
        r.iterations,
        r.total_time.to_bits(),
    )
}

#[test]
fn every_preset_prices_as_committed() {
    let g = graph();
    let mut got = Vec::new();
    for system in SYSTEMS {
        for (budget, devices, share) in
            [("fits", 1, None), ("half", 1, Some(0.5)), ("d4 tenth", 4, Some(0.1))]
        {
            let name = format!("{} sssp {budget}", system.name());
            got.push(line(&name, &run(&g, system, devices, share, Sssp::from_source(0))));
            let name = format!("{} pr {budget}", system.name());
            got.push(line(&name, &run(&g, system, devices, share, PageRank::new())));
        }
    }
    let moved: Vec<_> = got.iter().zip(GOLDEN).filter(|(g, w)| g != w).collect();
    assert!(
        moved.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} lines moved; the runs now give:\n{}",
        moved.len(),
        GOLDEN.len(),
        got.iter().map(|l| format!("    \"{l}\",\n")).collect::<String>(),
    );
}

/// Captured when this test was added; see the module docs to regenerate.
const GOLDEN: &[&str] = &[
    "HyTGraph sssp fits: it=7 time=0x3f01574e7f729590 counters=[262144, 0, 0, 11, 0, 59585, 0, 31, 0] mix=[0, 0, 0, 0, 71, 35] values=0xd6f6dc36ac6ee3e0",
    "HyTGraph pr fits: it=31 time=0x3f222b05f105998d counters=[131072, 0, 0, 9, 0, 1145403, 0, 399, 0] mix=[0, 0, 0, 0, 837, 35] values=0xe8e0de26ed140e1a",
    "HyTGraph sssp half: it=7 time=0x3f18227f5d215222 counters=[171288, 566272, 0, 36, 0, 59585, 10696, 31, 0] mix=[22, 14, 70, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "HyTGraph pr half: it=31 time=0x3f4352315d4f9078 counters=[2327876, 451072, 0, 220, 0, 1145403, 74480, 399, 0] mix=[600, 98, 174, 0, 0, 0] values=0xe8e0de26ed140e1a",
    "HyTGraph sssp d4 tenth: it=7 time=0x3f1ebd9fccf36692 counters=[171288, 566272, 0, 55, 0, 59585, 10696, 58, 23598] mix=[22, 14, 70, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "HyTGraph pr d4 tenth: it=31 time=0x3f465b819ca734b0 counters=[2327876, 451072, 0, 303, 0, 1145403, 74480, 505, 703986] mix=[600, 98, 174, 0, 0, 0] values=0xe8e0de26ed140e1a",
    "Hybrid sssp fits: it=6 time=0x3f1894be6b402c7b counters=[262144, 0, 0, 34, 0, 62513, 0, 189, 0] mix=[0, 0, 0, 0, 80, 34] values=0xd6f6dc36ac6ee3e0",
    "Hybrid pr fits: it=43 time=0x3f2dd240929125aa counters=[131072, 0, 0, 34, 0, 1276220, 0, 1911, 0] mix=[0, 0, 0, 0, 948, 34] values=0xd87d92ad111be1e0",
    "Hybrid sssp half: it=6 time=0x3f3b3e39043fc793 counters=[121792, 706432, 0, 170, 0, 62513, 5024, 189, 0] mix=[16, 19, 79, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Hybrid pr half: it=43 time=0x3f6b00b162246233 counters=[2270980, 1707904, 0, 1295, 0, 1276220, 42936, 1911, 0] mix=[580, 56, 346, 0, 0, 0] values=0xd87d92ad111be1e0",
    "Hybrid sssp d4 tenth: it=6 time=0x3f30c1fd045079af counters=[121792, 706432, 0, 170, 0, 62513, 5024, 189, 23940] mix=[16, 19, 79, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Hybrid pr d4 tenth: it=43 time=0x3f6115a8acba536f counters=[2270980, 1707904, 0, 1295, 0, 1276220, 42936, 1911, 570288] mix=[580, 56, 346, 0, 0, 0] values=0xd87d92ad111be1e0",
    "Hybrid+TC sssp fits: it=6 time=0x3f06007dfea5c7b8 counters=[262144, 0, 0, 14, 0, 60072, 0, 31, 0] mix=[0, 0, 0, 0, 74, 34] values=0xd6f6dc36ac6ee3e0",
    "Hybrid+TC pr fits: it=31 time=0x3f22b2208dc7bffb counters=[131072, 0, 0, 9, 0, 1189118, 0, 457, 0] mix=[0, 0, 0, 0, 870, 34] values=0xa6e4584cd9e3442a",
    "Hybrid+TC sssp half: it=6 time=0x3f1a80badb3cca7d counters=[117616, 679296, 0, 39, 0, 60072, 8560, 31, 0] mix=[15, 17, 76, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Hybrid+TC pr half: it=31 time=0x3f48ad8b6c3de639 counters=[2188952, 1540224, 0, 286, 0, 1189118, 69772, 457, 0] mix=[551, 55, 298, 0, 0, 0] values=0xa6e4584cd9e3442a",
    "Hybrid+TC sssp d4 tenth: it=6 time=0x3f2007badad5c737 counters=[117616, 679296, 0, 58, 0, 60072, 8560, 62, 25098] mix=[15, 17, 76, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Hybrid+TC pr d4 tenth: it=31 time=0x3f49ed32dcd9ac9c counters=[2188952, 1540224, 0, 389, 0, 1189118, 69772, 602, 540762] mix=[551, 55, 298, 0, 0, 0] values=0xa6e4584cd9e3442a",
    "ExpTM-F sssp fits: it=8 time=0x3f22585c5d79174a counters=[1266312, 0, 0, 52, 0, 62352, 0, 52, 0] mix=[164, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ExpTM-F pr fits: it=62 time=0x3f573269164572d9 counters=[6806052, 0, 0, 526, 0, 1251254, 0, 526, 0] mix=[1763, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
    "ExpTM-F sssp half: it=8 time=0x3f22585c5d79174a counters=[1266312, 0, 0, 52, 0, 62352, 0, 52, 0] mix=[164, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ExpTM-F pr half: it=62 time=0x3f573269164572d9 counters=[6806052, 0, 0, 526, 0, 1251254, 0, 526, 0] mix=[1763, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
    "ExpTM-F sssp d4 tenth: it=8 time=0x3f2705675e167d04 counters=[1266312, 0, 0, 88, 0, 62352, 0, 88, 69954] mix=[164, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ExpTM-F pr d4 tenth: it=62 time=0x3f55beab23e53f53 counters=[6806052, 0, 0, 565, 0, 1251254, 0, 565, 1722576] mix=[1763, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
    "Subway sssp fits: it=7 time=0x3f1cc0664ddcdbbe counters=[289168, 0, 0, 14, 0, 52632, 289168, 12, 0] mix=[0, 118, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Subway pr fits: it=13 time=0x3f318fdac8828c54 counters=[1202952, 0, 0, 43, 0, 747165, 1202952, 35, 0] mix=[0, 365, 0, 0, 0, 0] values=0xb360ca3e390e80e1",
    "Subway sssp half: it=7 time=0x3f1cc0664ddcdbbe counters=[289168, 0, 0, 14, 0, 52632, 289168, 12, 0] mix=[0, 118, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Subway pr half: it=13 time=0x3f318fdac8828c54 counters=[1202952, 0, 0, 43, 0, 747165, 1202952, 35, 0] mix=[0, 365, 0, 0, 0, 0] values=0xb360ca3e390e80e1",
    "Subway sssp d4 tenth: it=7 time=0x3f22d458ccd544f4 counters=[289168, 0, 0, 26, 0, 52632, 289168, 40, 37350] mix=[0, 118, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Subway pr d4 tenth: it=13 time=0x3f31fbe211e383cf counters=[1202952, 0, 0, 69, 0, 747165, 1202952, 133, 323901] mix=[0, 365, 0, 0, 0, 0] values=0xb360ca3e390e80e1",
    "EMOGI sssp fits: it=8 time=0x3f16092e921232a6 counters=[0, 1014016, 0, 36, 0, 62352, 0, 8, 0] mix=[0, 0, 164, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "EMOGI pr fits: it=62 time=0x3f525f095a4aad0f counters=[0, 12785152, 0, 418, 0, 1251254, 0, 62, 0] mix=[0, 0, 1763, 0, 0, 0] values=0xf0500fe5375a24dc",
    "EMOGI sssp half: it=8 time=0x3f16092e921232a6 counters=[0, 1014016, 0, 36, 0, 62352, 0, 8, 0] mix=[0, 0, 164, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "EMOGI pr half: it=62 time=0x3f525f095a4aad0f counters=[0, 12785152, 0, 418, 0, 1251254, 0, 62, 0] mix=[0, 0, 1763, 0, 0, 0] values=0xf0500fe5375a24dc",
    "EMOGI sssp d4 tenth: it=8 time=0x3f1b18a4bdc8f203 counters=[0, 1014016, 0, 46, 0, 62352, 0, 26, 69954] mix=[0, 0, 164, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "EMOGI pr d4 tenth: it=62 time=0x3f53519cbba0b2b7 counters=[0, 12785152, 0, 541, 0, 1251254, 0, 243, 1722576] mix=[0, 0, 1763, 0, 0, 0] values=0xf0500fe5375a24dc",
    "Grus sssp fits: it=8 time=0x3f028a88867735ad counters=[0, 0, 282624, 0, 69, 62352, 0, 8, 0] mix=[0, 0, 0, 164, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Grus pr fits: it=62 time=0x3f2098ad8a923f66 counters=[0, 0, 143360, 0, 35, 1251254, 0, 62, 0] mix=[0, 0, 0, 1763, 0, 0] values=0xf0500fe5375a24dc",
    "Grus sssp half: it=8 time=0x3f2143311c395998 counters=[0, 1345024, 143360, 50, 35, 62352, 0, 14, 0] mix=[0, 0, 94, 70, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Grus pr half: it=56 time=0x3f590a168f315601 counters=[0, 15922688, 73728, 550, 18, 1233111, 0, 111, 0] mix=[0, 0, 807, 818, 0, 0] values=0x8578322666c257c9",
    "Grus sssp d4 tenth: it=8 time=0x3f24ee2f65826d5a counters=[0, 1564672, 102400, 82, 25, 62352, 0, 45, 69954] mix=[0, 0, 117, 47, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Grus pr d4 tenth: it=58 time=0x3f5a2dcca5ec8e00 counters=[0, 18973440, 53248, 812, 13, 1249271, 0, 426, 1682991] mix=[0, 0, 1077, 603, 0, 0] values=0xe3eb9e268a4c99bd",
    "ImpTM-UM sssp fits: it=8 time=0x3f015ad110e6f94f counters=[0, 0, 262144, 9, 64, 62352, 0, 8, 0] mix=[0, 0, 0, 164, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ImpTM-UM pr fits: it=62 time=0x3f206b1ed289698b counters=[0, 0, 131072, 4, 32, 1251254, 0, 62, 0] mix=[0, 0, 0, 1763, 0, 0] values=0xf0500fe5375a24dc",
    "ImpTM-UM sssp half: it=8 time=0x3f1fc7cc16b21dd9 counters=[0, 0, 1093632, 38, 267, 62352, 0, 8, 0] mix=[0, 0, 0, 164, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ImpTM-UM pr half: it=62 time=0x3f48735791fd7a62 counters=[0, 0, 6725632, 213, 1642, 1251254, 0, 62, 0] mix=[0, 0, 0, 1763, 0, 0] values=0xf0500fe5375a24dc",
    "ImpTM-UM sssp d4 tenth: it=8 time=0x3f1fe53eacfcb42b counters=[0, 0, 1236992, 49, 302, 62352, 0, 26, 69954] mix=[0, 0, 0, 164, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "ImpTM-UM pr d4 tenth: it=62 time=0x3f4f2011b0bfcba3 counters=[0, 0, 8237056, 410, 2011, 1251254, 0, 243, 1722576] mix=[0, 0, 0, 1763, 0, 0] values=0xf0500fe5375a24dc",
    "Galois sssp fits: it=8 time=0x3f4b939584c83779 counters=[0, 0, 0, 0, 0, 62352, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Galois pr fits: it=62 time=0x3f7ccfdc73dbecf9 counters=[0, 0, 0, 0, 0, 1251254, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
    "Galois sssp half: it=8 time=0x3f4b939584c83779 counters=[0, 0, 0, 0, 0, 62352, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Galois pr half: it=62 time=0x3f7ccfdc73dbecf9 counters=[0, 0, 0, 0, 0, 1251254, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
    "Galois sssp d4 tenth: it=8 time=0x3f4b939584c83779 counters=[0, 0, 0, 0, 0, 62352, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xd6f6dc36ac6ee3e0",
    "Galois pr d4 tenth: it=62 time=0x3f7ccfdc73dbecf9 counters=[0, 0, 0, 0, 0, 1251254, 0, 0, 0] mix=[0, 0, 0, 0, 0, 0] values=0xf0500fe5375a24dc",
];
