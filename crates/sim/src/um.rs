//! Unified-memory model: 4 KB pages, fault costs, LRU residency.
//!
//! CUDA unified memory migrates data at page granularity on first touch.
//! The paper (Section II-C / III-B) highlights three properties we model:
//!
//! 1. **Fault overhead** — a page fault triggers TLB invalidation and page
//!    table updates; peak UM bandwidth only reaches **73.9 %** of explicit
//!    copy (the paper's measured ratio, citing EMOGI).
//! 2. **Page-granular redundancy** — touching one 4-byte neighbour faults a
//!    whole 4 KB page (Fig. 3(d)'s gap between active edges and active
//!    pages).
//! 3. **Residency and eviction** — pages stay cached until capacity forces
//!    LRU eviction; with `cudaMemAdviseSetReadMostly` evicted pages are
//!    dropped, not written back. Small graphs therefore transfer once and
//!    then run at device speed (the SK column of Table V).

use crate::pcie::PcieModel;
use crate::SimTime;
use std::collections::{BTreeMap, HashMap};

/// Unified-memory subsystem parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UmModel {
    /// Migration granularity (4 KB default CUDA page).
    pub page_bytes: u64,
    /// Sustained UM migration bandwidth, bytes/s (73.9 % of explicit copy).
    pub migrate_bw: f64,
    /// Fixed per-fault overhead (TLB shootdown + page-table update).
    pub fault_overhead: SimTime,
}

/// Measured UM/explicit bandwidth ratio from the paper.
const UM_BANDWIDTH_FRACTION: f64 = 0.739;

impl UmModel {
    /// Derive a UM model from the bus it migrates over.
    pub fn new(pcie: &PcieModel) -> Self {
        UmModel {
            page_bytes: 4096,
            migrate_bw: pcie.explicit_bw * UM_BANDWIDTH_FRACTION,
            // ~20 µs per fault group is the scale EMOGI reports for the
            // driver-side bookkeeping; the bandwidth derate above already
            // captures steady-state cost, so this only penalises sparse
            // touch patterns.
            fault_overhead: 2.0e-6,
        }
    }

    /// Page index holding byte `addr`.
    #[inline]
    fn page_of(&self, addr: u64) -> u64 {
        addr / self.page_bytes
    }

    /// Time to fault-in `pages` pages (transfer + bookkeeping).
    pub fn migrate_time(&self, pages: u64) -> SimTime {
        pages as f64 * (self.page_bytes as f64 / self.migrate_bw + self.fault_overhead)
    }
}

/// LRU set of device-resident pages under a byte budget.
///
/// `touch_range` is what an engine calls per neighbour run; it returns how
/// many pages faulted so the caller can charge [`UmModel::migrate_time`]
/// and count transferred bytes.
#[derive(Debug)]
pub struct UmCache {
    model: UmModel,
    capacity_pages: u64,
    /// page -> last-use tick
    resident: HashMap<u64, u64>,
    /// last-use tick -> page (ticks are unique), for O(log n) LRU pops
    lru: BTreeMap<u64, u64>,
    tick: u64,
}

impl UmCache {
    /// Empty cache over a device byte budget.
    pub fn new(model: UmModel, capacity_bytes: u64) -> Self {
        UmCache {
            model,
            capacity_pages: (capacity_bytes / model.page_bytes).max(1),
            resident: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Touch every page overlapping `[start, start+len)`; returns the
    /// number of faults (pages that had to migrate).
    pub fn touch_range(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = self.model.page_of(start);
        let last = self.model.page_of(start + len - 1);
        let mut faulted = 0;
        for p in first..=last {
            self.tick += 1;
            if let Some(old_tick) = self.resident.insert(p, self.tick) {
                self.lru.remove(&old_tick);
            } else {
                faulted += 1;
                if self.resident.len() as u64 > self.capacity_pages {
                    self.evict_lru();
                }
            }
            self.lru.insert(self.tick, p);
        }
        faulted
    }

    fn evict_lru(&mut self) {
        if let Some((&tick, &page)) = self.lru.iter().next() {
            self.lru.remove(&tick);
            self.resident.remove(&page);
        }
    }

    /// Pages currently resident.
    // hyt-lint: allow(unreached-pub) -- the UM cache's capacity bound is proptested through it (tests/engine_invariants.rs)
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> UmModel {
        UmModel::new(&PcieModel::pcie3())
    }

    #[test]
    fn bandwidth_is_739_of_explicit() {
        let p = PcieModel::pcie3();
        let m = UmModel::new(&p);
        assert!((m.migrate_bw / p.explicit_bw - UM_BANDWIDTH_FRACTION).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_after_first_touch() {
        let mut c = UmCache::new(model(), 1 << 20);
        assert_eq!(c.touch_range(0, 8192), 2); // 2 pages fault
        assert_eq!(c.touch_range(0, 8192), 0); // now resident
    }

    #[test]
    fn capacity_forces_lru_eviction() {
        // Capacity: 2 pages.
        let mut c = UmCache::new(model(), 8192);
        c.touch_range(0, 1); // page 0
        c.touch_range(4096, 1); // page 1
        c.touch_range(0, 1); // refresh page 0
        c.touch_range(8192, 1); // page 2 -> evicts page 1 (LRU)
        assert_eq!(c.resident_pages(), 2);
        assert_eq!(c.touch_range(0, 1), 0); // page 0 still resident
        assert_eq!(c.touch_range(4096, 1), 1); // page 1 was evicted
    }

    #[test]
    fn small_working_set_transfers_once() {
        // The SK-fits-in-memory effect: repeated sweeps over a working set
        // within capacity only pay for the first sweep.
        let mut c = UmCache::new(model(), 1 << 22); // 1024 pages
        let sweep = |c: &mut UmCache| {
            let mut f = 0;
            for i in 0..512u64 {
                f += c.touch_range(i * 4096, 4096);
            }
            f
        };
        assert_eq!(sweep(&mut c), 512);
        assert_eq!(sweep(&mut c), 0);
        assert_eq!(sweep(&mut c), 0);
    }

    #[test]
    fn oversubscribed_sweeps_thrash() {
        // Working set of 512 pages against 128-page capacity: every sweep
        // refaults everything (sequential sweep is LRU's worst case).
        let mut c = UmCache::new(model(), 128 * 4096);
        let sweep = |c: &mut UmCache| {
            let mut f = 0;
            for i in 0..512u64 {
                f += c.touch_range(i * 4096, 4096);
            }
            f
        };
        assert_eq!(sweep(&mut c), 512);
        assert_eq!(sweep(&mut c), 512);
    }

    #[test]
    fn migrate_time_scales_with_pages() {
        let m = model();
        assert!(m.migrate_time(10) > 9.0 * m.migrate_time(1));
        assert_eq!(m.migrate_time(0), 0.0);
    }
}
