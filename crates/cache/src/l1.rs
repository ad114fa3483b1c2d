//! The private L1 data cache: set-associative, write-back, true LRU.

use crate::config::CacheConfig;
use crate::line::CacheLine;
use crate::stats::CoreCacheStats;

/// Outcome of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Outcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Block byte address of a dirty line evicted by the fill, if any.
    pub writeback: Option<u64>,
}

/// A private, set-associative, write-back, write-allocate LRU cache.
///
/// Misses are filled immediately (the timing cost of the refill is charged
/// by the system model, not here). Context switches may [`L1Cache::flush`]
/// the cache to model cold-start effects for the incoming job.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::{CacheConfig, L1Cache};
///
/// let mut l1 = L1Cache::new(CacheConfig::paper_l1());
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    config: CacheConfig,
    lines: Vec<CacheLine>,
    tick: u64,
    stats: CoreCacheStats,
}

impl L1Cache {
    /// Creates an empty cache with the given configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            lines: vec![CacheLine::INVALID; config.geometry().lines()],
            tick: 0,
            stats: CoreCacheStats::default(),
        }
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CoreCacheStats {
        &self.stats
    }

    /// Performs one access at byte address `addr`; `is_write` marks stores.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> L1Outcome {
        let geom = self.config.geometry();
        let (tag, set) = geom.slice(addr);
        let assoc = geom.associativity() as usize;
        let base = set as usize * assoc;
        self.tick += 1;

        // Hit path.
        for line in &mut self.lines[base..base + assoc] {
            if line.valid && line.tag == tag {
                line.last_used = self.tick;
                line.dirty |= is_write;
                self.stats.record_access(false);
                return L1Outcome {
                    hit: true,
                    writeback: None,
                };
            }
        }

        // Miss: fill into an invalid line or evict the LRU line.
        self.stats.record_access(true);
        let victim = {
            let set_lines = &self.lines[base..base + assoc];
            match set_lines.iter().position(|l| !l.valid) {
                Some(idx) => idx,
                None => set_lines
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.last_used)
                    .map(|(idx, _)| idx)
                    .expect("associativity is at least 1"),
            }
        };
        let line = &mut self.lines[base + victim];
        let writeback = if line.valid && line.dirty {
            self.stats.record_writeback();
            Some(geom.unslice(line.tag, set))
        } else {
            None
        };
        *line = CacheLine {
            tag,
            valid: true,
            dirty: is_write,
            owner: 0,
            last_used: self.tick,
        };
        L1Outcome {
            hit: false,
            writeback,
        }
    }

    /// Invalidates the whole cache, returning the block addresses of dirty
    /// lines that must be written back. Models a context switch where the
    /// incoming job finds a cold L1.
    pub fn flush(&mut self) -> Vec<u64> {
        let geom = self.config.geometry();
        let assoc = geom.associativity() as usize;
        let mut writebacks = Vec::new();
        for set in 0..geom.sets() {
            let base = set as usize * assoc;
            for line in &mut self.lines[base..base + assoc] {
                if line.valid && line.dirty {
                    writebacks.push(geom.unslice(line.tag, set));
                    self.stats.record_writeback();
                }
                *line = CacheLine::INVALID;
            }
        }
        writebacks
    }

    /// Number of currently valid lines (for tests and introspection).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::{ByteSize, Cycles};

    fn tiny() -> L1Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        L1Cache::new(
            CacheConfig::new(
                ByteSize::from_bytes(256),
                2,
                ByteSize::from_bytes(64),
                Cycles::new(1),
            )
            .unwrap(),
        )
    }

    /// Address of block `b` mapping to set `s` in the tiny cache.
    fn addr(s: u64, b: u64) -> u64 {
        (b * 2 + s) * 64
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        assert!(!c.access(addr(0, 0), false).hit);
        assert!(!c.access(addr(0, 1), false).hit);
        // Touch block 0 so block 1 is LRU.
        assert!(c.access(addr(0, 0), false).hit);
        // Fill a third block: evicts block 1.
        assert!(!c.access(addr(0, 2), false).hit);
        assert!(c.access(addr(0, 0), false).hit);
        assert!(!c.access(addr(0, 1), false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(addr(0, 0), true);
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false); // evicts dirty block 0
        assert_eq!(out.writeback, Some(addr(0, 0)));
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 0), true); // dirty via write hit
        c.access(addr(0, 1), false);
        let out = c.access(addr(0, 2), false);
        assert_eq!(out.writeback, Some(addr(0, 0)));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(1, 0), false);
        c.access(addr(0, 1), false);
        c.access(addr(0, 2), false); // evicts within set 0 only
        assert!(c.access(addr(1, 0), false).hit);
    }

    #[test]
    fn flush_empties_and_reports_dirty_blocks() {
        let mut c = tiny();
        c.access(addr(0, 0), true);
        c.access(addr(1, 3), false);
        let wb = c.flush();
        assert_eq!(wb, vec![addr(0, 0)]);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(addr(1, 3), false).hit);
    }

    #[test]
    fn stats_track_accesses_and_misses() {
        let mut c = tiny();
        c.access(addr(0, 0), false);
        c.access(addr(0, 0), false);
        assert_eq!(c.stats().accesses(), 2);
        assert_eq!(c.stats().misses(), 1);
    }
}
