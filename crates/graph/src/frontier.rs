//! Active-vertex frontiers.
//!
//! A vertex-centric iteration takes the vertices updated by the previous
//! iteration (the *active vertices*) as input. HyTGraph tracks activity
//! with a bitmap-directed frontier (the paper inherits this from Grus) so
//! parallel kernels mark activations with one atomic OR instead of
//! contending on a queue.
//!
//! [`Frontier`] is that structure: a fixed-width atomic bitmap plus an
//! approximate population counter. It supports lock-free concurrent
//! insertion during a kernel and cheap dense iteration between kernels.

use crate::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic bitmap of active vertices.
#[derive(Debug)]
pub struct Frontier {
    words: Vec<AtomicU64>,
    num_vertices: u32,
}

impl Frontier {
    /// An empty frontier over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        let nwords = (num_vertices as usize).div_ceil(64);
        let words = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        Frontier { words, num_vertices }
    }

    /// Frontier with every vertex active.
    pub fn full(num_vertices: u32) -> Self {
        let f = Frontier::new(num_vertices);
        for (i, w) in f.words.iter().enumerate() {
            let base = (i * 64) as u64;
            let bits_here = (num_vertices as u64).saturating_sub(base).min(64);
            let mask = if bits_here == 64 { u64::MAX } else { (1u64 << bits_here) - 1 };
            w.store(mask, Ordering::Relaxed);
        }
        f
    }

    /// Number of vertices this frontier covers.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Mark `v` active. Returns `true` if `v` was previously inactive —
    /// kernels use this to count *newly* activated vertices without a
    /// second pass. Safe to call concurrently.
    #[inline]
    pub fn insert(&self, v: VertexId) -> bool {
        debug_assert!(v < self.num_vertices);
        let word = (v / 64) as usize;
        let bit = 1u64 << (v % 64);
        let prev = self.words[word].fetch_or(bit, Ordering::Relaxed);
        prev & bit == 0
    }

    /// Remove `v`. Returns `true` if it was active.
    #[inline]
    pub fn remove(&self, v: VertexId) -> bool {
        debug_assert!(v < self.num_vertices);
        let word = (v / 64) as usize;
        let bit = 1u64 << (v % 64);
        let prev = self.words[word].fetch_and(!bit, Ordering::Relaxed);
        prev & bit != 0
    }

    /// Whether `v` is active.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        debug_assert!(v < self.num_vertices);
        let word = (v / 64) as usize;
        let bit = 1u64 << (v % 64);
        self.words[word].load(Ordering::Relaxed) & bit != 0
    }

    /// Exact population count (linear scan over words).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as u64).sum()
    }

    /// True when no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }

    /// Deactivate everything.
    pub fn clear(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Iterate active vertices in ascending order.
    pub fn iter(&self) -> FrontierIter<'_> {
        FrontierIter { frontier: self, word_idx: 0, current: 0 }
    }

    /// Iterate active vertices within `[first, end)` in ascending order.
    pub fn iter_range(
        &self,
        first: VertexId,
        end: VertexId,
    ) -> impl Iterator<Item = VertexId> + '_ {
        self.iter().skip_while(move |&v| v < first).take_while(move |&v| v < end)
    }

    /// Collect the active set into a vector (sparse view).
    pub fn to_vec(&self) -> Vec<VertexId> {
        self.iter().collect()
    }

    /// Copy the contents of `other` into `self` (sizes must match).
    fn copy_from(&self, other: &Frontier) {
        assert_eq!(self.num_vertices, other.num_vertices);
        for (a, b) in self.words.iter().zip(&other.words) {
            a.store(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Swap contents with `other` (sizes must match). `&mut` because a swap
    /// is not meaningful mid-kernel.
    pub fn swap(&mut self, other: &mut Frontier) {
        assert_eq!(self.num_vertices, other.num_vertices);
        std::mem::swap(&mut self.words, &mut other.words);
    }
}

impl Clone for Frontier {
    fn clone(&self) -> Self {
        let f = Frontier::new(self.num_vertices);
        f.copy_from(self);
        f
    }
}

/// Ascending iterator over active vertices; see [`Frontier::iter`].
// hyt-lint: allow(unreached-pub) -- named in the public signature of `Frontier::iter`
pub struct FrontierIter<'a> {
    frontier: &'a Frontier,
    word_idx: usize,
    current: u64,
}

impl Iterator for FrontierIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                let v = ((self.word_idx - 1) * 64) as u32 + bit;
                if v < self.frontier.num_vertices {
                    return Some(v);
                }
                return None;
            }
            if self.word_idx >= self.frontier.words.len() {
                return None;
            }
            self.current = self.frontier.words[self.word_idx].load(Ordering::Relaxed);
            self.word_idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_newness() {
        let f = Frontier::new(100);
        assert!(f.insert(5));
        assert!(!f.insert(5));
        assert!(f.contains(5));
        assert!(!f.contains(6));
        assert_eq!(f.count(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let f = Frontier::new(100);
        f.insert(3);
        f.insert(64);
        assert!(f.remove(3));
        assert!(!f.remove(3));
        assert_eq!(f.count(), 1);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn full_covers_exactly_n() {
        for n in [1u32, 63, 64, 65, 128, 130] {
            let f = Frontier::full(n);
            assert_eq!(f.count(), n as u64, "n = {n}");
            assert!(f.contains(n - 1));
        }
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let f = Frontier::new(200);
        let vs = [0u32, 1, 63, 64, 65, 127, 128, 199];
        for &v in &vs {
            f.insert(v);
        }
        assert_eq!(f.to_vec(), vs);
    }

    #[test]
    fn concurrent_insert_counts_once() {
        let f = std::sync::Arc::new(Frontier::new(10_000));
        let mut handles = Vec::new();
        for t in 0..8 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let mut newly = 0u64;
                for v in 0..10_000u32 {
                    if v % 8 >= t && f.insert(v) {
                        newly += 1;
                    }
                }
                newly
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, f.count());
        assert_eq!(f.count(), 10_000);
    }

    #[test]
    fn swap_and_copy_from() {
        let mut a = Frontier::new(64);
        let mut b = Frontier::new(64);
        a.insert(1);
        b.insert(2);
        a.swap(&mut b);
        assert!(a.contains(2) && !a.contains(1));
        assert!(b.contains(1) && !b.contains(2));
        let c = Frontier::new(64);
        c.copy_from(&a);
        assert!(c.contains(2));
    }
}
