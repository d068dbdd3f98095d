//! Per-rank algorithm-state memory accounting.
//!
//! The paper's Fig 8 breaks cluster-wide peak memory into "graph" and
//! "algorithm states (which includes communication buffers and messages)".
//! Algorithms register their allocations here by label; the tracker keeps
//! both the current and the peak total so the Fig 8 harness can report
//! per-category peaks.

use parking_lot::Mutex;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct Inner {
    current: BTreeMap<&'static str, usize>,
    total: usize,
    peak_total: usize,
    peak_by_label: BTreeMap<&'static str, usize>,
}

/// Thread-safe allocation ledger for one rank.
#[derive(Debug, Default)]
pub struct MemoryTracker {
    inner: Mutex<Inner>,
}

impl MemoryTracker {
    /// Records `bytes` newly allocated under `label`.
    pub fn record(&self, label: &'static str, bytes: usize) {
        let mut g = self.inner.lock();
        *g.current.entry(label).or_default() += bytes;
        g.total += bytes;
        let cur_label = g.current[label];
        let peak = g.peak_by_label.entry(label).or_default();
        if cur_label > *peak {
            *peak = cur_label;
        }
        if g.total > g.peak_total {
            g.peak_total = g.total;
        }
    }

    /// Records `bytes` released under `label`. Saturates at zero rather than
    /// panicking, since release estimates may be coarser than allocations.
    pub fn release(&self, label: &'static str, bytes: usize) {
        let mut g = self.inner.lock();
        let cur = g.current.entry(label).or_default();
        let freed = bytes.min(*cur);
        *cur -= freed;
        g.total -= freed;
    }

    /// Current total bytes across all labels.
    pub fn current_total(&self) -> usize {
        self.inner.lock().total
    }

    /// Current bytes under one label (0 if never recorded).
    pub fn current(&self, label: &str) -> usize {
        self.inner.lock().current.get(label).copied().unwrap_or(0)
    }

    /// Highest total ever observed.
    pub fn peak_total(&self) -> usize {
        self.inner.lock().peak_total
    }

    /// Peak bytes per label.
    pub fn peaks(&self) -> BTreeMap<&'static str, usize> {
        self.inner.lock().peak_by_label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_release() {
        let t = MemoryTracker::default();
        t.record("state", 100);
        t.record("buffer", 50);
        assert_eq!(t.current_total(), 150);
        assert_eq!(t.current("buffer"), 50);
        t.release("buffer", 50);
        assert_eq!(t.current_total(), 100);
        assert_eq!(t.current("buffer"), 0);
        assert_eq!(t.current("never_recorded"), 0);
        assert_eq!(t.peak_total(), 150);
    }

    #[test]
    fn peak_per_label() {
        let t = MemoryTracker::default();
        t.record("buf", 10);
        t.release("buf", 10);
        t.record("buf", 6);
        assert_eq!(t.peaks()["buf"], 10);
    }

    #[test]
    fn over_release_saturates() {
        let t = MemoryTracker::default();
        t.record("x", 5);
        t.release("x", 100);
        assert_eq!(t.current_total(), 0);
    }
}
