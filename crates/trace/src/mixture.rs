//! Access mixtures: the building blocks of synthetic benchmarks.
//!
//! A benchmark's data-reference behaviour is modelled as a weighted mixture
//! of [`Component`]s laid out in disjoint address regions:
//!
//! * [`Component::WorkingSet`] — uniform random references over a region of a
//!   given size. Under (partitioned) LRU caching, a working set of `S` bytes
//!   granted `A ≤ S` bytes of capacity hits with probability ≈ `A / S`,
//!   which is what makes the aggregate miss-ratio-versus-ways curve
//!   piecewise-smooth and *calibratable* against the paper's Table 1 and
//!   Figure 4.
//! * [`Component::Stream`] — a sequential scan over a large region: always
//!   misses in any realistically sized cache (models streaming benchmarks
//!   like `libquantum`/`milc`, which the paper classifies as insensitive).

use crate::access::{Access, AccessKind};
use cmpqos_types::ByteSize;
use rand::Rng;
use std::fmt;

/// Cache-block size assumed when laying out regions (matches the simulated
/// hierarchy: 64-byte blocks everywhere).
pub const BLOCK_BYTES: u64 = 64;

/// One component of an access mixture.
#[derive(Debug, Clone, PartialEq)]
pub enum Component {
    /// Uniform random references over `size` bytes.
    WorkingSet {
        /// Footprint of the component.
        size: ByteSize,
        /// Fraction of the benchmark's memory accesses that reference this
        /// component (weights need not be normalized; the mixture normalizes).
        weight: f64,
        /// Fraction of the references that are stores.
        write_fraction: f64,
    },
    /// A sequential block-strided scan over `region` bytes, wrapping around.
    Stream {
        /// Length of the scanned region (should exceed any cache of
        /// interest so the scan never fits).
        region: ByteSize,
        /// Fraction of the benchmark's memory accesses from this stream.
        weight: f64,
        /// Fraction of the references that are stores.
        write_fraction: f64,
    },
}

impl Component {
    fn weight(&self) -> f64 {
        match self {
            Component::WorkingSet { weight, .. } | Component::Stream { weight, .. } => *weight,
        }
    }

    fn footprint(&self) -> ByteSize {
        match self {
            Component::WorkingSet { size, .. } => *size,
            Component::Stream { region, .. } => *region,
        }
    }

    fn write_fraction(&self) -> f64 {
        match self {
            Component::WorkingSet { write_fraction, .. }
            | Component::Stream { write_fraction, .. } => *write_fraction,
        }
    }
}

/// A validated, region-laid-out mixture of components ready for sampling.
///
/// # Examples
///
/// ```
/// use cmpqos_trace::{AccessMixture, Component};
/// use cmpqos_types::ByteSize;
///
/// let mix = AccessMixture::new(vec![
///     Component::WorkingSet {
///         size: ByteSize::from_kib(16),
///         weight: 0.9,
///         write_fraction: 0.3,
///     },
///     Component::Stream {
///         region: ByteSize::from_mib(64),
///         weight: 0.1,
///         write_fraction: 0.0,
///     },
/// ])
/// .unwrap();
/// assert_eq!(mix.components().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessMixture {
    components: Vec<Component>,
    /// Cumulative normalized weights, same length as `components`.
    cumulative: Vec<f64>,
    /// Per-component region base offsets (bytes, relative to the mixture).
    bases: Vec<u64>,
    /// Per-stream cursors (block index within the region), indexed like
    /// `components`; unused entries stay zero.
    cursors: Vec<u64>,
    total_footprint: ByteSize,
}

/// Error building an [`AccessMixture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixtureError {
    /// The component list was empty.
    Empty,
    /// A weight or write fraction was negative, non-finite, or (for write
    /// fractions) greater than one; or all weights were zero.
    InvalidParameter(&'static str),
    /// A component footprint was smaller than one cache block.
    FootprintTooSmall,
}

impl fmt::Display for MixtureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixtureError::Empty => f.write_str("mixture has no components"),
            MixtureError::InvalidParameter(what) => {
                write!(f, "invalid mixture parameter: {what}")
            }
            MixtureError::FootprintTooSmall => {
                f.write_str("component footprint is smaller than one cache block")
            }
        }
    }
}

impl std::error::Error for MixtureError {}

impl AccessMixture {
    /// Builds a mixture, validating parameters and laying out each
    /// component's region back-to-back (block aligned) in a private address
    /// space starting at offset zero.
    ///
    /// # Errors
    ///
    /// Returns [`MixtureError`] if the list is empty, weights are invalid, or
    /// a footprint is smaller than a cache block.
    pub fn new(components: Vec<Component>) -> Result<Self, MixtureError> {
        if components.is_empty() {
            return Err(MixtureError::Empty);
        }
        let mut total_weight = 0.0;
        for c in &components {
            let w = c.weight();
            if !w.is_finite() || w < 0.0 {
                return Err(MixtureError::InvalidParameter("weight"));
            }
            let wf = c.write_fraction();
            if !wf.is_finite() || !(0.0..=1.0).contains(&wf) {
                return Err(MixtureError::InvalidParameter("write_fraction"));
            }
            if c.footprint().bytes() < BLOCK_BYTES {
                return Err(MixtureError::FootprintTooSmall);
            }
            total_weight += w;
        }
        if total_weight <= 0.0 {
            return Err(MixtureError::InvalidParameter("all weights zero"));
        }

        let mut cumulative = Vec::with_capacity(components.len());
        let mut acc = 0.0;
        for c in &components {
            acc += c.weight() / total_weight;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall on the last bucket.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }

        let mut bases = Vec::with_capacity(components.len());
        let mut offset = 0u64;
        for c in &components {
            bases.push(offset);
            // Round footprints up to whole blocks and pad with one spacer
            // block so regions never share a block.
            let blocks = c.footprint().bytes().div_ceil(BLOCK_BYTES) + 1;
            offset += blocks * BLOCK_BYTES;
        }

        let cursors = vec![0u64; components.len()];
        Ok(Self {
            components,
            cumulative,
            bases,
            cursors,
            total_footprint: ByteSize::from_bytes(offset),
        })
    }

    /// The validated components.
    #[must_use]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Total laid-out footprint (sum of component regions plus padding).
    #[must_use]
    pub fn total_footprint(&self) -> ByteSize {
        self.total_footprint
    }

    /// Samples one access. `base` is the job's address-space base, added to
    /// the mixture-relative address so concurrently running jobs never alias.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, base: u64) -> Access {
        let u: f64 = rng.gen();
        let idx = match self.cumulative.iter().position(|&c| u <= c) {
            Some(i) => i,
            None => self.components.len() - 1,
        };
        let region_base = base + self.bases[idx];
        let (addr, write_fraction) = match &self.components[idx] {
            Component::WorkingSet {
                size,
                write_fraction,
                ..
            } => {
                let blocks = size.bytes() / BLOCK_BYTES;
                let blk = rng.gen_range(0..blocks.max(1));
                (region_base + blk * BLOCK_BYTES, *write_fraction)
            }
            Component::Stream {
                region,
                write_fraction,
                ..
            } => {
                let blocks = region.bytes() / BLOCK_BYTES;
                let cursor = &mut self.cursors[idx];
                let blk = *cursor;
                *cursor += 1;
                if *cursor >= blocks {
                    *cursor = 0;
                }
                (region_base + blk * BLOCK_BYTES, *write_fraction)
            }
        };
        let kind = if write_fraction > 0.0 && rng.gen::<f64>() < write_fraction {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Access::new(addr, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ws(kib: u64, weight: f64) -> Component {
        Component::WorkingSet {
            size: ByteSize::from_kib(kib),
            weight,
            write_fraction: 0.25,
        }
    }

    #[test]
    fn rejects_empty_and_bad_params() {
        assert_eq!(AccessMixture::new(vec![]), Err(MixtureError::Empty));
        assert!(matches!(
            AccessMixture::new(vec![ws(16, -1.0)]),
            Err(MixtureError::InvalidParameter("weight"))
        ));
        assert!(matches!(
            AccessMixture::new(vec![Component::WorkingSet {
                size: ByteSize::from_kib(16),
                weight: 1.0,
                write_fraction: 2.0,
            }]),
            Err(MixtureError::InvalidParameter("write_fraction"))
        ));
        assert!(matches!(
            AccessMixture::new(vec![ws(16, 0.0)]),
            Err(MixtureError::InvalidParameter("all weights zero"))
        ));
        assert!(matches!(
            AccessMixture::new(vec![Component::WorkingSet {
                size: ByteSize::from_bytes(8),
                weight: 1.0,
                write_fraction: 0.0,
            }]),
            Err(MixtureError::FootprintTooSmall)
        ));
    }

    #[test]
    fn regions_are_disjoint() {
        let mut mix = AccessMixture::new(vec![ws(1, 0.5), ws(1, 0.5)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let first_region = 0..1024u64;
        let mut seen_second = false;
        for _ in 0..1000 {
            let a = mix.sample(&mut rng, 0);
            if !first_region.contains(&a.addr()) {
                // Second region starts after the first's padded footprint.
                assert!(a.addr() >= 1024 + 64);
                seen_second = true;
            }
        }
        assert!(seen_second);
    }

    #[test]
    fn weights_control_sampling_ratio() {
        let mut mix = AccessMixture::new(vec![ws(1, 0.9), ws(1, 0.1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut first = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if mix.sample(&mut rng, 0).addr() < 1024 {
                first += 1;
            }
        }
        let frac = first as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let mut mix = AccessMixture::new(vec![Component::Stream {
            region: ByteSize::from_bytes(3 * BLOCK_BYTES),
            weight: 1.0,
            write_fraction: 0.0,
        }])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let addrs: Vec<u64> = (0..4).map(|_| mix.sample(&mut rng, 0).addr()).collect();
        assert_eq!(addrs, vec![0, 64, 128, 0]);
    }

    #[test]
    fn base_offsets_all_addresses() {
        let mut mix = AccessMixture::new(vec![ws(1, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let a = mix.sample(&mut rng, 1 << 40);
        assert!(a.addr() >= 1 << 40);
    }

    #[test]
    fn write_fraction_statistics() {
        let mut mix = AccessMixture::new(vec![ws(4, 1.0)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| mix.sample(&mut rng, 0).is_write())
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn footprint_accounts_for_padding() {
        let mix = AccessMixture::new(vec![ws(1, 1.0), ws(1, 1.0)]).unwrap();
        // Two 1-KiB regions plus one spacer block each.
        assert_eq!(mix.total_footprint().bytes(), 2 * (1024 + 64));
    }
}
