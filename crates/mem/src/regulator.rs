//! Per-core off-chip bandwidth regulation.
//!
//! The paper scopes its RUM targets to cores and L2 capacity and leaves
//! "off-chip bandwidth rate" as future work (Section 3.2). This module
//! supplies that extension's microarchitecture half: a token-bucket
//! regulator that **caps** each core's share of channel time, so that a
//! reserved bandwidth vector admitted by the LAC (`Σ shares ≤ 100%`)
//! cannot be trampled by a noisy neighbour. (The *guarantee* half is the
//! existing Reserved-over-Opportunistic priority plus admission control.)

use cmpqos_types::Cycles;

/// A per-consumer token-bucket bandwidth cap.
///
/// Shares are percent of peak channel bandwidth; a consumer with share `s`
/// accumulates `s/100` cycles of transfer budget per simulated cycle, up to
/// a configurable burst. Consumers with no share configured (share 100)
/// are unregulated.
///
/// # Examples
///
/// ```
/// use cmpqos_mem::regulator::BandwidthRegulator;
/// use cmpqos_types::Cycles;
///
/// let mut reg = BandwidthRegulator::new(4, Cycles::new(200));
/// reg.set_share(0, 50); // core 0 may use at most half the channel
/// let d0 = reg.delay(0, Cycles::new(0), Cycles::new(20));
/// assert_eq!(d0, Cycles::new(0)); // burst allowance covers the first
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthRegulator {
    /// Percent share per consumer (100 = unregulated).
    shares: Vec<u8>,
    /// Token balance per consumer, in channel cycles (may go negative
    /// conceptually; stored as signed).
    tokens: Vec<f64>,
    last_update: Vec<Cycles>,
    burst: f64,
}

impl BandwidthRegulator {
    /// Creates a regulator for `consumers` cores with the given burst
    /// allowance (in channel cycles).
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero or `burst` is zero.
    #[must_use]
    pub fn new(consumers: usize, burst: Cycles) -> Self {
        assert!(consumers > 0, "need at least one consumer");
        assert!(burst > Cycles::ZERO, "burst must be positive");
        Self {
            shares: vec![100; consumers],
            tokens: vec![burst.as_f64(); consumers],
            last_update: vec![Cycles::ZERO; consumers],
            burst: burst.as_f64(),
        }
    }

    /// Sets a consumer's share in percent (clamped to 100; 100 =
    /// unregulated).
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    pub fn set_share(&mut self, consumer: usize, percent: u8) {
        self.shares[consumer] = percent.min(100);
    }

    /// The consumer's configured share.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[must_use]
    pub fn share(&self, consumer: usize) -> u8 {
        self.shares[consumer]
    }

    /// Charges a transfer of `transfer` channel cycles issued by
    /// `consumer` at time `now`, returning the regulation delay to add
    /// before the request may enter the channel.
    ///
    /// # Panics
    ///
    /// Panics if `consumer` is out of range.
    #[inline]
    pub fn delay(&mut self, consumer: usize, now: Cycles, transfer: Cycles) -> Cycles {
        let share = f64::from(self.shares[consumer]) / 100.0;
        if share >= 1.0 {
            return Cycles::ZERO;
        }
        // Refill.
        let elapsed = now.saturating_sub(self.last_update[consumer]).as_f64();
        self.last_update[consumer] = now.max(self.last_update[consumer]);
        let t = &mut self.tokens[consumer];
        *t = (*t + elapsed * share).min(self.burst);
        // Spend.
        *t -= transfer.as_f64();
        if *t >= 0.0 {
            Cycles::ZERO
        } else {
            // Wait until the balance refills to zero; advance the refill
            // clock to the end of the wait so it is not credited twice.
            let wait = (-*t / share).ceil();
            *t += wait * share;
            self.last_update[consumer] = now + Cycles::new(wait as u64);
            Cycles::new(wait as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregulated_consumer_never_waits() {
        let mut reg = BandwidthRegulator::new(2, Cycles::new(100));
        for i in 0..50u64 {
            assert_eq!(reg.delay(1, Cycles::new(i), Cycles::new(20)), Cycles::ZERO);
        }
    }

    #[test]
    fn capped_consumer_converges_to_its_share() {
        let mut reg = BandwidthRegulator::new(1, Cycles::new(40));
        reg.set_share(0, 25); // quarter of the channel
        let transfer = Cycles::new(20);
        let mut now = Cycles::ZERO;
        let n = 200u64;
        for _ in 0..n {
            let d = reg.delay(0, now, transfer);
            // Back-to-back issue: next request right after this transfer.
            now = now + d + transfer;
        }
        // n transfers of 20 cycles at a 25% cap need ~ n*20/0.25 cycles.
        let expected = n as f64 * 20.0 / 0.25;
        let actual = now.as_f64();
        assert!(
            (actual - expected).abs() / expected < 0.1,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn idle_time_refills_up_to_burst_only() {
        let mut reg = BandwidthRegulator::new(1, Cycles::new(40));
        reg.set_share(0, 50);
        // Long idle: balance caps at the 40-cycle burst, so only two
        // 20-cycle transfers go through before throttling.
        assert_eq!(
            reg.delay(0, Cycles::new(1_000_000), Cycles::new(20)),
            Cycles::ZERO
        );
        assert_eq!(
            reg.delay(0, Cycles::new(1_000_000), Cycles::new(20)),
            Cycles::ZERO
        );
        let d = reg.delay(0, Cycles::new(1_000_000), Cycles::new(20));
        assert!(d > Cycles::ZERO, "third back-to-back transfer throttles");
    }

    #[test]
    fn shares_clamp_to_hundred() {
        let mut reg = BandwidthRegulator::new(1, Cycles::new(10));
        reg.set_share(0, 250);
        assert_eq!(reg.share(0), 100);
    }

    #[test]
    #[should_panic(expected = "at least one consumer")]
    fn zero_consumers_rejected() {
        let _ = BandwidthRegulator::new(0, Cycles::new(10));
    }
}
