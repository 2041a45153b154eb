//! A small set-associative cache model.
//!
//! Used in two places: (1) when `cache_sim` is enabled, every heap access
//! is classified as an L1 hit or miss to charge Table V latencies; (2) the
//! characterization harness sweeps cache sizes from 16 KB to 64 MB and
//! looks for knees in the miss rate to report the working-set columns of
//! Table VI, exactly as the paper did.

use crate::config::CacheGeometry;

/// An LRU set-associative cache tag array (no data — classification only).
#[derive(Debug, Clone)]
pub struct CacheModel {
    geometry: CacheGeometry,
    sets: u64,
    assoc: usize,
    /// `sets * assoc` tags; 0 = empty, otherwise line address + 1, in LRU
    /// order within each set (front = most recent).
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl CacheModel {
    /// Create an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let assoc = geometry.assoc as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheModel {
            geometry,
            sets,
            assoc,
            tags: vec![0; (sets as usize) * assoc],
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access `line`; returns true on hit. Updates LRU state.
    pub fn access(&mut self, line: u64) -> bool {
        self.accesses += 1;
        let set = (line & (self.sets - 1)) as usize;
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        let tag = line + 1;
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            ways[..=pos].rotate_right(1);
            true
        } else {
            self.misses += 1;
            ways.rotate_right(1);
            ways[0] = tag;
            false
        }
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`; 0 if no accesses yet.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheModel {
        // 2 sets x 2 ways x 32B lines = 128 bytes
        CacheModel::new(CacheGeometry {
            size_bytes: 128,
            assoc: 2,
            line_bytes: 32,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0)); // cold miss
        assert!(c.access(0)); // hit
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = tiny();
        // lines 0, 2, 4 all map to set 0 (2 sets).
        c.access(0);
        c.access(2);
        assert!(c.access(0)); // still resident
        c.access(4); // evicts LRU = line 2
        assert!(c.access(0));
        assert!(!c.access(2)); // was evicted
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert!(c.access(0));
        assert!(c.access(1));
        assert!(c.access(2));
        assert!(c.access(3));
    }

    #[test]
    fn miss_rate_tracks_working_set() {
        // A working set larger than the cache never hits when cycled.
        let mut c = tiny(); // 4 lines capacity
        for _ in 0..10 {
            for line in 0..16u64 {
                c.access(line * 2); // all in set 0... ensure thrash
            }
        }
        assert!(c.miss_rate() > 0.9);

        // A working set that fits hits almost always after warmup.
        let mut c2 = tiny();
        for _ in 0..100 {
            c2.access(0);
            c2.access(1);
        }
        assert!(c2.miss_rate() < 0.05);
    }

    #[test]
    fn table_v_l1_has_2048_lines() {
        let c = CacheModel::new(CacheGeometry::table_v_l1());
        assert_eq!(c.sets * c.assoc as u64, 2048);
    }
}
