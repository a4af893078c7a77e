//! Cross-frame resource cache keyed on input fingerprints.
//!
//! A pass marked cacheable (via [`FrameGraph::set_cache_key`]) publishes its
//! outputs as shared `Arc`s; the next frame that declares the same pass with
//! the same fingerprint gets them installed without running the pass. This
//! is how the ray tracer reuses a BVH across frames without a long-lived
//! [`RayTracer`](crate::raytrace::RayTracer), and how a static camera
//! memoizes its primary-ray table.
//!
//! [`FrameGraph::set_cache_key`]: crate::graph::FrameGraph::set_cache_key

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

type Entry = Vec<(Arc<dyn Any + Send + Sync>, usize)>;

/// FIFO-bounded map from `(pass name, input fingerprint)` to the pass's
/// retained outputs (values + byte estimates, aligned with the pass's
/// declared writes).
pub struct GraphCache {
    entries: BTreeMap<(&'static str, u64), Entry>,
    /// Insertion order for FIFO eviction.
    order: Vec<(&'static str, u64)>,
    capacity: usize,
    pub hits: u64,
    pub misses: u64,
}

impl GraphCache {
    /// A cache retaining at most `capacity` pass outputs.
    pub fn new(capacity: usize) -> GraphCache {
        GraphCache {
            entries: BTreeMap::new(),
            order: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a pass's retained outputs; counts a hit or miss.
    pub fn lookup(&mut self, pass: &'static str, key: u64) -> Option<Entry> {
        match self.entries.get(&(pass, key)) {
            Some(entry) => {
                self.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Retain a pass's outputs, evicting the oldest entry when full.
    pub fn insert(&mut self, pass: &'static str, key: u64, entry: Entry) {
        if self.entries.insert((pass, key), entry).is_none() {
            self.order.push((pass, key));
        }
        while self.order.len() > self.capacity {
            let oldest = self.order.remove(0);
            self.entries.remove(&oldest);
        }
    }
}

/// Fold a slice of raw bit-words into an FNV-1a fingerprint. The ray
/// tracer's graph uses this to key cached passes on their inputs (geometry
/// identity, camera pose, image dimensions).
pub fn fingerprint(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_eviction_respects_capacity() {
        let mut c = GraphCache::new(2);
        c.insert("a", 1, vec![(Arc::new(1u64) as Arc<dyn Any + Send + Sync>, 8)]);
        c.insert("a", 2, vec![(Arc::new(2u64) as Arc<dyn Any + Send + Sync>, 8)]);
        c.insert("a", 3, vec![(Arc::new(3u64) as Arc<dyn Any + Send + Sync>, 8)]);
        assert_eq!(c.entries.len(), 2);
        assert!(c.lookup("a", 1).is_none(), "oldest entry evicted");
        assert!(c.lookup("a", 2).is_some());
        assert!(c.lookup("a", 3).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_order() {
        let mut c = GraphCache::new(2);
        c.insert("a", 1, Vec::new());
        c.insert("a", 1, Vec::new());
        c.insert("a", 2, Vec::new());
        assert_eq!(c.entries.len(), 2);
        assert!(c.lookup("a", 1).is_some());
    }

    #[test]
    fn fingerprint_is_deterministic_and_input_sensitive() {
        let a = fingerprint(&[1, 2, 3]);
        assert_eq!(a, fingerprint(&[1, 2, 3]));
        assert_ne!(a, fingerprint(&[1, 2, 4]));
        assert_ne!(a, fingerprint(&[1, 2]));
        assert_ne!(fingerprint(&[0]), fingerprint(&[]));
    }
}
