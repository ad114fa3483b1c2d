//! The shared, way-partitioned L2 cache (Section 4.1 of the paper).
//!
//! Three replacement policies are provided:
//!
//! * [`PartitionPolicy::PerSet`] — the paper's QoS-aware scheme. Each core
//!   has a *target allocation counter* (in ways) and each set tracks how many
//!   of its blocks each core currently owns. On a miss by an under-allocated
//!   core, the victim is taken from an over-allocated core, preferring
//!   over-allocated **Strict/Elastic** owners (to speed their convergence to
//!   target so stolen capacity reaches Opportunistic jobs quickly), then the
//!   LRU block among **Opportunistic** owners. A core at or above its target
//!   replaces its own LRU block. Over time every set converges to the target
//!   split, giving run-to-run performance uniformity.
//! * [`PartitionPolicy::Global`] — the Suh-style modified-LRU scheme the
//!   paper argues against: one global owner counter per core; per-set
//!   allocations drift run to run (kept for the ablation experiment).
//! * [`PartitionPolicy::Unpartitioned`] — plain LRU (no QoS).

use crate::config::{CacheConfig, CacheConfigError};
use crate::line::CacheLine;
use crate::stats::CoreCacheStats;
use cmpqos_types::{CoreId, Cycles, Ways};
use std::fmt;

/// How the L2 selects victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Plain LRU, no partitioning.
    Unpartitioned,
    /// Per-set owner counters + target allocation counters (the paper's
    /// QoS-aware scheme).
    PerSet,
    /// Global owner counters (Suh-style modified LRU).
    Global,
}

/// Victim-priority class of the job currently running on a core.
///
/// Strict and Elastic(X) jobs are [`VictimClass::Reserved`]; their
/// over-allocated blocks are evicted first so the partition converges to its
/// target quickly. Opportunistic jobs (and idle cores) are
/// [`VictimClass::Opportunistic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimClass {
    /// Strict or Elastic(X) — resources reserved.
    Reserved,
    /// Opportunistic — uses spare capacity only.
    #[default]
    Opportunistic,
}

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block byte address of the evicted line.
    pub block_addr: u64,
    /// Whether it was dirty (costs a memory write-back).
    pub dirty: bool,
    /// The core whose partition it was charged to.
    pub owner: CoreId,
}

/// Outcome of an L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The set index the access mapped to (used by the duplicate-tag
    /// monitor's set sampling).
    pub set: u32,
    /// Block evicted by the fill, if the access missed and displaced a
    /// valid line.
    pub eviction: Option<Eviction>,
}

/// Error applying a target-allocation vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The vector length does not match the core count.
    WrongLength {
        /// Expected number of cores.
        expected: usize,
        /// Provided vector length.
        got: usize,
    },
    /// The targets sum to more ways than the cache has.
    Overcommitted {
        /// Sum of requested ways.
        requested: u16,
        /// Cache associativity.
        available: u16,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::WrongLength { expected, got } => {
                write!(f, "expected {expected} targets, got {got}")
            }
            PartitionError::Overcommitted {
                requested,
                available,
            } => write!(
                f,
                "targets request {requested} ways but the cache has {available}"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Error masking a faulty way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WayMaskError {
    /// The way index is not within `0..associativity`.
    OutOfRange {
        /// The offending way index.
        way: u16,
        /// The cache's associativity.
        associativity: u16,
    },
    /// The way is already masked.
    AlreadyMasked(u16),
    /// Masking this way would leave the cache with zero usable ways.
    LastUsableWay,
}

impl fmt::Display for WayMaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WayMaskError::OutOfRange { way, associativity } => {
                write!(f, "way {way} out of range (associativity {associativity})")
            }
            WayMaskError::AlreadyMasked(way) => write!(f, "way {way} is already masked"),
            WayMaskError::LastUsableWay => f.write_str("cannot mask the last usable way"),
        }
    }
}

impl std::error::Error for WayMaskError {}

/// The shared last-level cache.
///
/// # Examples
///
/// ```
/// use cmpqos_cache::{CacheConfig, PartitionPolicy, SharedL2};
/// use cmpqos_types::{CoreId, Ways};
///
/// let mut l2 = SharedL2::new(CacheConfig::paper_l2(), 4, PartitionPolicy::PerSet);
/// l2.set_targets(&[Ways::new(7), Ways::new(7), Ways::new(1), Ways::new(1)])?;
/// let out = l2.access(CoreId::new(0), 0x4000, false);
/// assert!(!out.hit); // cold miss
/// # Ok::<(), cmpqos_cache::l2::PartitionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedL2 {
    config: CacheConfig,
    num_cores: usize,
    policy: PartitionPolicy,
    lines: Vec<CacheLine>,
    /// Per-set per-core owned-block counts (PerSet policy), laid out
    /// `set * num_cores + core`.
    set_counts: Vec<u16>,
    /// Per-core total owned-block counts (Global policy and occupancy
    /// introspection).
    global_counts: Vec<u64>,
    targets: Vec<Ways>,
    classes: Vec<VictimClass>,
    /// Per-way fault mask (a masked way is dead in **every** set): masked
    /// ways hold no valid lines and are never selected as fill victims.
    masked: Vec<bool>,
    tick: u64,
    stats: Vec<CoreCacheStats>,
}

impl SharedL2 {
    /// Creates an empty shared cache for `num_cores` cores.
    ///
    /// All targets start at zero and all cores start as
    /// [`VictimClass::Opportunistic`].
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds 255. Prefer
    /// [`SharedL2::try_new`] outside test code.
    #[must_use]
    pub fn new(config: CacheConfig, num_cores: usize, policy: PartitionPolicy) -> Self {
        match Self::try_new(config, num_cores, policy) {
            Ok(l2) => l2,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SharedL2::new`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError::BadCoreCount`] when `num_cores` is zero
    /// or exceeds 255.
    pub fn try_new(
        config: CacheConfig,
        num_cores: usize,
        policy: PartitionPolicy,
    ) -> Result<Self, CacheConfigError> {
        if !(1..=255).contains(&num_cores) {
            return Err(CacheConfigError::BadCoreCount);
        }
        let sets = config.geometry().sets() as usize;
        Ok(Self {
            config,
            num_cores,
            policy,
            lines: vec![CacheLine::INVALID; config.geometry().lines()],
            set_counts: vec![0; sets * num_cores],
            global_counts: vec![0; num_cores],
            targets: vec![Ways::ZERO; num_cores],
            classes: vec![VictimClass::Opportunistic; num_cores],
            masked: vec![false; config.associativity() as usize],
            tick: 0,
            stats: vec![CoreCacheStats::default(); num_cores],
        })
    }

    /// The cache configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The active partitioning policy.
    #[must_use]
    pub fn policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Number of cores sharing the cache.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Per-core target allocations, in ways.
    #[must_use]
    pub fn targets(&self) -> &[Ways] {
        &self.targets
    }

    /// Sets one core's target allocation counter.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_target(&mut self, core: CoreId, ways: Ways) {
        self.targets[core.as_usize()] = ways;
    }

    /// Sets all cores' targets at once, validating against the cache's
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the vector length is wrong or the sum
    /// of targets exceeds the way count.
    pub fn set_targets(&mut self, targets: &[Ways]) -> Result<(), PartitionError> {
        if targets.len() != self.num_cores {
            return Err(PartitionError::WrongLength {
                expected: self.num_cores,
                got: targets.len(),
            });
        }
        let requested: u16 = targets.iter().map(|w| w.get()).sum();
        if requested > self.effective_associativity() {
            return Err(PartitionError::Overcommitted {
                requested,
                available: self.effective_associativity(),
            });
        }
        self.targets.copy_from_slice(targets);
        Ok(())
    }

    /// [`SharedL2::set_targets`], additionally emitting
    /// `PartitionChanged` to `recorder` with timestamp `at` on success.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] exactly as [`SharedL2::set_targets`]
    /// (nothing is recorded on error).
    pub fn set_targets_recorded(
        &mut self,
        targets: &[Ways],
        at: Cycles,
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Result<(), PartitionError> {
        self.set_targets(targets)?;
        if recorder.enabled() {
            recorder.record(
                at,
                cmpqos_obs::Event::PartitionChanged {
                    targets: targets.to_vec(),
                },
            );
        }
        Ok(())
    }

    /// Sets the victim-priority class of the job on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_class(&mut self, core: CoreId, class: VictimClass) {
        self.classes[core.as_usize()] = class;
    }

    /// Ways still usable: associativity minus masked (faulty) ways.
    #[must_use]
    pub fn effective_associativity(&self) -> u16 {
        self.config.associativity() - self.masked_ways()
    }

    /// Number of masked (faulty) ways.
    #[must_use]
    pub fn masked_ways(&self) -> u16 {
        self.masked.iter().filter(|&&m| m).count() as u16
    }

    /// Whether `way` is masked.
    #[must_use]
    pub fn is_way_masked(&self, way: u16) -> bool {
        self.masked.get(way as usize).copied().unwrap_or(false)
    }

    /// Masks a faulty way: invalidates its line in **every** set (returning
    /// the dirty ones as write-backs), excludes it from all future fills,
    /// and re-normalizes the per-core target allocation counters so they
    /// sum to at most the shrunken associativity — shaving one way at a
    /// time off the largest target (ties: the highest core index), which
    /// keeps the adjustment deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`WayMaskError`] when `way` is out of range, already masked,
    /// or the last usable way.
    pub fn mask_way(&mut self, way: u16) -> Result<Vec<Eviction>, WayMaskError> {
        let assoc = self.config.associativity();
        if way >= assoc {
            return Err(WayMaskError::OutOfRange {
                way,
                associativity: assoc,
            });
        }
        if self.masked[way as usize] {
            return Err(WayMaskError::AlreadyMasked(way));
        }
        if self.effective_associativity() == 1 {
            return Err(WayMaskError::LastUsableWay);
        }
        self.masked[way as usize] = true;
        let geom = self.config.geometry();
        let mut evictions = Vec::new();
        for set in 0..geom.sets() {
            let idx = set as usize * assoc as usize + way as usize;
            let line = self.lines[idx];
            if line.valid {
                let owner = line.owner as usize;
                self.set_counts[set as usize * self.num_cores + owner] -= 1;
                self.global_counts[owner] -= 1;
                if line.dirty {
                    evictions.push(Eviction {
                        block_addr: geom.unslice(line.tag, set),
                        dirty: true,
                        owner: CoreId::new(line.owner as u32),
                    });
                    self.stats[owner].record_writeback();
                }
                self.lines[idx] = CacheLine::INVALID;
            }
        }
        let effective = self.effective_associativity();
        let mut total: u16 = self.targets.iter().map(|w| w.get()).sum();
        while total > effective {
            let victim = (0..self.num_cores)
                .max_by_key(|&i| self.targets[i].get())
                .expect("at least one core");
            self.targets[victim] -= Ways::new(1);
            total -= 1;
        }
        Ok(evictions)
    }

    /// Statistics for one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn stats(&self, core: CoreId) -> &CoreCacheStats {
        &self.stats[core.as_usize()]
    }

    /// Number of blocks currently owned by `core` across the whole cache.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn occupancy(&self, core: CoreId) -> u64 {
        self.global_counts[core.as_usize()]
    }

    /// Blocks owned by `core` in one set (PerSet accounting).
    #[must_use]
    pub fn set_occupancy(&self, core: CoreId, set: u32) -> u16 {
        self.set_counts[set as usize * self.num_cores + core.as_usize()]
    }

    /// Fraction of the cache's *usable* lines owned by `core`, in integer
    /// milli-percent (`100_000` = the whole unmasked cache). Masked
    /// (faulty) ways are excluded from the denominator, so the metric
    /// stays comparable across fault injections. Zero on a cache whose
    /// every way is masked.
    ///
    /// This is the occupancy currency of the adaptive control plane: the
    /// same milli-unit integer vocabulary as CPI/MPKI samples, exact and
    /// platform-independent.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn occupancy_milli_pct(&self, core: CoreId) -> u64 {
        let usable =
            u64::from(self.effective_associativity()) * u64::from(self.config.geometry().sets());
        if usable == 0 {
            return 0;
        }
        self.occupancy(core).saturating_mul(100_000) / usable
    }

    /// Performs one access by `core` at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for this cache.
    #[inline]
    pub fn access(&mut self, core: CoreId, addr: u64, is_write: bool) -> L2Outcome {
        let c = core.as_usize();
        assert!(c < self.num_cores, "core {core} out of range");
        let geom = self.config.geometry();
        let (tag, set) = geom.slice(addr);
        let assoc = geom.associativity() as usize;
        let base = set as usize * assoc;
        self.tick += 1;

        // Hit path: tag match on any line regardless of owner.
        for line in &mut self.lines[base..base + assoc] {
            if line.valid && line.tag == tag {
                line.last_used = self.tick;
                line.dirty |= is_write;
                self.stats[c].record_access(false);
                return L2Outcome {
                    hit: true,
                    set,
                    eviction: None,
                };
            }
        }

        // Miss path.
        self.stats[c].record_access(true);
        let victim_way = self.choose_victim(c, set, base, assoc);
        let line = &mut self.lines[base + victim_way];
        let eviction = if line.valid {
            let old_owner = line.owner as usize;
            self.set_counts[set as usize * self.num_cores + old_owner] -= 1;
            self.global_counts[old_owner] -= 1;
            if line.dirty {
                self.stats[old_owner].record_writeback();
            }
            Some(Eviction {
                block_addr: geom.unslice(line.tag, set),
                dirty: line.dirty,
                owner: CoreId::new(line.owner as u32),
            })
        } else {
            None
        };
        *line = CacheLine {
            tag,
            valid: true,
            dirty: is_write,
            owner: c as u8,
            last_used: self.tick,
        };
        self.set_counts[set as usize * self.num_cores + c] += 1;
        self.global_counts[c] += 1;
        L2Outcome {
            hit: false,
            set,
            eviction,
        }
    }

    /// Invalidates every block owned by `core`, returning the dirty ones.
    /// Used when a job departs and its partition is reclaimed.
    pub fn invalidate_core(&mut self, core: CoreId) -> Vec<Eviction> {
        let c = core.as_usize();
        let geom = self.config.geometry();
        let assoc = geom.associativity() as usize;
        let mut evictions = Vec::new();
        for set in 0..geom.sets() {
            let base = set as usize * assoc;
            for line in &mut self.lines[base..base + assoc] {
                if line.valid && line.owner as usize == c {
                    if line.dirty {
                        evictions.push(Eviction {
                            block_addr: geom.unslice(line.tag, set),
                            dirty: true,
                            owner: core,
                        });
                        self.stats[c].record_writeback();
                    }
                    *line = CacheLine::INVALID;
                    self.set_counts[set as usize * self.num_cores + c] -= 1;
                    self.global_counts[c] -= 1;
                }
            }
        }
        evictions
    }

    /// Victim way within the set, per the active policy. The set is full
    /// when this is called (no invalid line).
    fn choose_victim(&self, c: usize, set: u32, base: usize, assoc: usize) -> usize {
        let set_lines = &self.lines[base..base + assoc];

        // Masked (faulty) ways hold invalid lines forever: they must be
        // skipped when hunting for a free way, or every miss would try to
        // fill the dead column. `lru_among` needs no mask check because it
        // only considers valid lines.
        let invalid = || {
            set_lines
                .iter()
                .enumerate()
                .find(|&(w, l)| !self.masked[w] && !l.valid)
                .map(|(w, _)| w)
        };
        let lru_among = |pred: &dyn Fn(&CacheLine) -> bool| -> Option<usize> {
            set_lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.valid && pred(l))
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
        };
        // Fallback chain used whenever a core must grow beyond (or has no
        // blocks within) its allocation: unused ways first, then
        // Opportunistic blocks, then over-allocated owners, then plain LRU.
        let scavenge = |over: &dyn Fn(usize) -> bool| -> usize {
            if let Some(idx) = invalid() {
                return idx;
            }
            if let Some(idx) =
                lru_among(&|l| self.classes[l.owner as usize] == VictimClass::Opportunistic)
            {
                return idx;
            }
            if let Some(idx) = lru_among(&|l| over(l.owner as usize)) {
                return idx;
            }
            lru_among(&|_| true).expect("full set has lines")
        };

        match self.policy {
            PartitionPolicy::Unpartitioned => {
                if let Some(idx) = invalid() {
                    return idx;
                }
                lru_among(&|_| true).expect("full set has lines")
            }
            PartitionPolicy::PerSet => {
                let count = |j: usize| self.set_counts[set as usize * self.num_cores + j];
                let over = |j: usize| u32::from(count(j)) > u32::from(self.targets[j].get());
                if u32::from(count(c)) < u32::from(self.targets[c].get()) {
                    // Under-allocated: unused ways first, then take from an
                    // over-allocated core, preferring Reserved
                    // (Strict/Elastic) owners so their partitions converge
                    // fast (Section 4.1).
                    if let Some(idx) = invalid() {
                        return idx;
                    }
                    let reserved_over = lru_among(&|l| {
                        let j = l.owner as usize;
                        over(j) && self.classes[j] == VictimClass::Reserved
                    });
                    if let Some(idx) = reserved_over {
                        return idx;
                    }
                    if let Some(idx) =
                        lru_among(&|l| self.classes[l.owner as usize] == VictimClass::Opportunistic)
                    {
                        return idx;
                    }
                    if let Some(idx) = lru_among(&|l| over(l.owner as usize)) {
                        return idx;
                    }
                    lru_among(&|_| true).expect("full set has lines")
                } else {
                    // At or above target: replace within own blocks, keeping
                    // occupancy capped at the allocation (unused ways stay
                    // unused — that is exactly the external fragmentation
                    // the paper's Opportunistic mode exists to reclaim).
                    if let Some(idx) = lru_among(&|l| l.owner as usize == c) {
                        return idx;
                    }
                    scavenge(&over)
                }
            }
            PartitionPolicy::Global => {
                let sets = u64::from(self.config.geometry().sets());
                let target_blocks = |j: usize| u64::from(self.targets[j].get()) * sets;
                let over = |j: usize| self.global_counts[j] > target_blocks(j);
                if self.global_counts[c] < target_blocks(c) {
                    if let Some(idx) = invalid() {
                        return idx;
                    }
                    if let Some(idx) = lru_among(&|l| over(l.owner as usize)) {
                        return idx;
                    }
                    lru_among(&|_| true).expect("full set has lines")
                } else if let Some(idx) = lru_among(&|l| l.owner as usize == c) {
                    idx
                } else {
                    scavenge(&over)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::{ByteSize, Cycles};

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    /// 4 sets x 4 ways x 64 B.
    fn tiny(policy: PartitionPolicy) -> SharedL2 {
        SharedL2::new(
            CacheConfig::new(
                ByteSize::from_bytes(4 * 4 * 64),
                4,
                ByteSize::from_bytes(64),
                Cycles::new(10),
            )
            .unwrap(),
            2,
            policy,
        )
    }

    /// Address of block `b` in set `s` (4 sets).
    fn addr(s: u64, b: u64) -> u64 {
        (b * 4 + s) * 64
    }

    #[test]
    fn per_set_counts_track_ownership() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        l2.access(C0, addr(0, 0), false);
        l2.access(C0, addr(0, 1), false);
        l2.access(C1, addr(0, 2), false);
        assert_eq!(l2.set_occupancy(C0, 0), 2);
        assert_eq!(l2.set_occupancy(C1, 0), 1);
        assert_eq!(l2.occupancy(C0), 2);
    }

    #[test]
    fn occupancy_milli_pct_is_exact_and_fault_aware() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        assert_eq!(l2.occupancy_milli_pct(C0), 0);
        // 2 blocks of 16 usable lines = 12.5% = 12_500 milli-pct.
        l2.access(C0, addr(0, 0), false);
        l2.access(C0, addr(0, 1), false);
        assert_eq!(l2.occupancy_milli_pct(C0), 12_500);
        // Masking a way shrinks the denominator to 12 lines: 2/12 ≈ 16.666%.
        l2.mask_way(3).unwrap();
        assert_eq!(l2.occupancy_milli_pct(C0), 2 * 100_000 / 12);
    }

    #[test]
    fn core_at_target_replaces_own_blocks() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        // Fill set 0: two blocks each.
        l2.access(C0, addr(0, 0), false);
        l2.access(C0, addr(0, 1), false);
        l2.access(C1, addr(0, 2), false);
        l2.access(C1, addr(0, 3), false);
        // C0 at target; a new C0 block must evict a C0 block.
        let out = l2.access(C0, addr(0, 4), false);
        assert_eq!(out.eviction.unwrap().owner, C0);
        assert_eq!(l2.set_occupancy(C0, 0), 2);
        assert_eq!(l2.set_occupancy(C1, 0), 2);
        // C1's blocks are untouched.
        assert!(l2.access(C1, addr(0, 2), false).hit);
        assert!(l2.access(C1, addr(0, 3), false).hit);
    }

    #[test]
    fn under_allocated_core_takes_from_over_allocated() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        // C0 fills the whole set while it owns all the ways.
        l2.set_targets(&[Ways::new(4), Ways::new(0)]).unwrap();
        for b in 0..4 {
            l2.access(C0, addr(0, b), false);
        }
        // Now repartition: C1 gets 3 ways; C0 keeps 1.
        l2.set_targets(&[Ways::new(1), Ways::new(3)]).unwrap();
        for b in 10..13 {
            let out = l2.access(C1, addr(0, b), false);
            assert_eq!(out.eviction.unwrap().owner, C0, "block {b}");
        }
        assert_eq!(l2.set_occupancy(C1, 0), 3);
        assert_eq!(l2.set_occupancy(C0, 0), 1);
    }

    #[test]
    fn reserved_over_allocated_evicted_before_opportunistic() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        l2.set_class(C0, VictimClass::Reserved);
        l2.set_class(C1, VictimClass::Opportunistic);
        // C0 (Reserved) owns 2 blocks; C1 (Opportunistic) owns 2; make C0's
        // blocks the *most recently used* so plain LRU would pick C1's.
        l2.access(C1, addr(0, 2), false);
        l2.access(C1, addr(0, 3), false);
        l2.access(C0, addr(0, 0), false);
        l2.access(C0, addr(0, 1), false);
        // Repartition: C1 target 3 — C0 is over-allocated (2 > 0).
        l2.set_targets(&[Ways::new(0), Ways::new(3)]).unwrap();
        let out = l2.access(C1, addr(0, 9), false);
        // Victim must come from the over-allocated Reserved core despite
        // being more recently used than the Opportunistic blocks.
        assert_eq!(out.eviction.unwrap().owner, C0);
    }

    #[test]
    fn opportunistic_lru_used_when_no_reserved_over_allocation() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(4), Ways::new(0)]).unwrap();
        l2.set_class(C0, VictimClass::Opportunistic);
        l2.set_class(C1, VictimClass::Reserved);
        l2.access(C0, addr(0, 0), false);
        l2.access(C0, addr(0, 1), false);
        l2.access(C0, addr(0, 2), false);
        l2.access(C0, addr(0, 3), false);
        l2.set_targets(&[Ways::new(0), Ways::new(2)]).unwrap();
        // C1 under target: victims are LRU opportunistic blocks, in order.
        let out = l2.access(C1, addr(0, 8), false);
        assert_eq!(out.eviction.unwrap().block_addr, addr(0, 0));
        let out = l2.access(C1, addr(0, 9), false);
        assert_eq!(out.eviction.unwrap().block_addr, addr(0, 1));
    }

    #[test]
    fn unpartitioned_is_plain_lru() {
        let mut l2 = tiny(PartitionPolicy::Unpartitioned);
        for b in 0..4 {
            l2.access(C0, addr(1, b), false);
        }
        l2.access(C1, addr(1, 4), false); // evicts block 0 (LRU)
        assert!(!l2.access(C0, addr(1, 0), false).hit);
    }

    #[test]
    fn global_policy_enforces_totals_not_per_set() {
        let mut l2 = tiny(PartitionPolicy::Global);
        // Targets: 2 ways each => 8 blocks each over 4 sets.
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        // C0 fills set 0 entirely: 4 blocks < 8 target, allowed.
        for b in 0..4 {
            l2.access(C0, addr(0, b), false);
        }
        assert_eq!(l2.set_occupancy(C0, 0), 4);
        // C1 misses in set 0 while under target: C0 is not over target
        // globally, so plain LRU applies (C0 block evicted anyway as LRU).
        let out = l2.access(C1, addr(0, 9), false);
        assert!(out.eviction.is_some());
    }

    #[test]
    fn dirty_evictions_are_flagged() {
        let mut l2 = tiny(PartitionPolicy::Unpartitioned);
        l2.access(C0, addr(2, 0), true);
        for b in 1..4 {
            l2.access(C0, addr(2, b), false);
        }
        let out = l2.access(C0, addr(2, 4), false);
        let ev = out.eviction.unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.block_addr, addr(2, 0));
    }

    #[test]
    fn set_targets_validates() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        assert!(matches!(
            l2.set_targets(&[Ways::new(3)]),
            Err(PartitionError::WrongLength {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            l2.set_targets(&[Ways::new(3), Ways::new(3)]),
            Err(PartitionError::Overcommitted {
                requested: 6,
                available: 4
            })
        ));
        assert!(l2.set_targets(&[Ways::new(2), Ways::new(2)]).is_ok());
    }

    #[test]
    fn invalidate_core_reclaims_blocks() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        l2.access(C0, addr(0, 0), true);
        l2.access(C0, addr(1, 1), false);
        l2.access(C1, addr(0, 2), false);
        let evs = l2.invalidate_core(C0);
        assert_eq!(evs.len(), 1); // only the dirty block reported
        assert_eq!(l2.occupancy(C0), 0);
        assert_eq!(l2.occupancy(C1), 1);
        assert!(l2.access(C1, addr(0, 2), false).hit);
    }

    #[test]
    fn hits_do_not_change_ownership() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        l2.access(C0, addr(0, 0), false);
        // C1 hits C0's block (e.g. after migration): ownership unchanged.
        assert!(l2.access(C1, addr(0, 0), false).hit);
        assert_eq!(l2.set_occupancy(C0, 0), 1);
        assert_eq!(l2.set_occupancy(C1, 0), 0);
    }

    #[test]
    fn outcome_reports_set_index() {
        let mut l2 = tiny(PartitionPolicy::Unpartitioned);
        assert_eq!(l2.access(C0, addr(3, 0), false).set, 3);
    }

    #[test]
    fn mask_way_invalidates_the_column_and_reports_dirty_writebacks() {
        let mut l2 = tiny(PartitionPolicy::Unpartitioned);
        // Fill set 0 fully; block 0 dirty. Ways fill in order 0..4.
        l2.access(C0, addr(0, 0), true);
        for b in 1..4 {
            l2.access(C0, addr(0, b), false);
        }
        assert_eq!(l2.effective_associativity(), 4);
        let evs = l2.mask_way(0).unwrap();
        assert_eq!(evs.len(), 1, "only the dirty block is written back");
        assert_eq!(evs[0].block_addr, addr(0, 0));
        assert!(l2.is_way_masked(0));
        assert_eq!(l2.effective_associativity(), 3);
        assert_eq!(l2.occupancy(C0), 3);
        // The dead way's block is gone and never refills: a miss must pick
        // a victim among the three live ways, not the masked invalid slot.
        assert!(!l2.access(C0, addr(0, 0), false).hit);
        let out = l2.access(C0, addr(0, 9), false);
        assert!(out.eviction.is_some(), "live way evicted, not the dead one");
        assert_eq!(l2.set_occupancy(C0, 0), 3);
    }

    #[test]
    fn mask_way_renormalizes_targets_deterministically() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        l2.set_targets(&[Ways::new(2), Ways::new(2)]).unwrap();
        l2.mask_way(3).unwrap();
        // 4 ways -> 3: one way shaved off the largest target; tie between
        // the two 2-way targets goes to the highest core index.
        assert_eq!(l2.targets(), &[Ways::new(2), Ways::new(1)]);
        // And the shrunken associativity now gates set_targets.
        assert!(matches!(
            l2.set_targets(&[Ways::new(2), Ways::new(2)]),
            Err(PartitionError::Overcommitted {
                requested: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn mask_way_rejects_bad_and_final_ways() {
        let mut l2 = tiny(PartitionPolicy::PerSet);
        assert_eq!(
            l2.mask_way(4),
            Err(WayMaskError::OutOfRange {
                way: 4,
                associativity: 4
            })
        );
        l2.mask_way(1).unwrap();
        assert_eq!(l2.mask_way(1), Err(WayMaskError::AlreadyMasked(1)));
        l2.mask_way(0).unwrap();
        l2.mask_way(2).unwrap();
        assert_eq!(l2.mask_way(3), Err(WayMaskError::LastUsableWay));
        assert_eq!(l2.effective_associativity(), 1);
    }

    #[test]
    fn partition_error_display() {
        let e = PartitionError::Overcommitted {
            requested: 20,
            available: 16,
        };
        assert!(e.to_string().contains("20"));
    }
}
