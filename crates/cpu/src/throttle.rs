//! DVFS-style per-core frequency throttle.
//!
//! The adaptive control plane (`cmpqos-adapt`) needs a third actuator
//! besides cache ways and stealing slack: slowing a core down so the jobs
//! it hosts generate less pressure on the shared L2 and memory channel.
//! [`Throttle`] models that as a *speed percentage* applied to the cycles a
//! core spends in its own clock domain — base (compute) cycles and L2-hit
//! stalls. Off-chip memory stalls are not scaled: DRAM does not slow down
//! when a core does.
//!
//! Scaling is exact integer arithmetic with a remainder accumulator, so a
//! long run at speed `p` costs exactly `ceil_accumulated(cycles * 100 / p)`
//! — no drift, no floating point, bit-identical across `--jobs` widths. At
//! speed 100 the scale is a strict no-op (the accumulator is untouched),
//! which is what makes an adaptive run with all knobs at baseline
//! byte-identical to a non-adaptive run.

use cmpqos_types::Cycles;

/// Lowest speed a core may be throttled to, in percent.
pub const MIN_SPEED_PCT: u8 = 25;

/// Full speed: the identity scale.
pub const FULL_SPEED_PCT: u8 = 100;

/// A per-core frequency scaler: stretches core-domain cycles by
/// `100 / speed_pct` using exact integer arithmetic.
///
/// # Examples
///
/// ```
/// use cmpqos_cpu::Throttle;
/// use cmpqos_types::Cycles;
///
/// let mut t = Throttle::full();
/// assert_eq!(t.scale(Cycles::new(7)), Cycles::new(7)); // 100% is a no-op
///
/// t.set_speed(50);
/// // 3 cycles at half speed: 6 cycles, remainder-exact.
/// assert_eq!(t.scale(Cycles::new(3)), Cycles::new(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throttle {
    speed_pct: u8,
    /// Sub-cycle remainder carried between scalings (hundredths of a
    /// cycle), so repeated small costs accumulate exactly.
    carry: u64,
}

impl Default for Throttle {
    fn default() -> Self {
        Self::full()
    }
}

impl Throttle {
    /// A throttle at full speed (identity).
    #[must_use]
    pub fn full() -> Self {
        Self {
            speed_pct: FULL_SPEED_PCT,
            carry: 0,
        }
    }

    /// Current speed in percent (always in `[MIN_SPEED_PCT, 100]`).
    #[must_use]
    pub fn speed(&self) -> u8 {
        self.speed_pct
    }

    /// Sets the speed, clamped to `[MIN_SPEED_PCT, 100]`. Returns the
    /// previous speed. Changing speed resets the sub-cycle remainder (a
    /// real DVFS transition re-synchronises the clock domain).
    pub fn set_speed(&mut self, percent: u8) -> u8 {
        let old = self.speed_pct;
        let new = percent.clamp(MIN_SPEED_PCT, FULL_SPEED_PCT);
        if new != old {
            self.speed_pct = new;
            self.carry = 0;
        }
        old
    }

    /// Stretches `cycles` of core-domain time by the current speed.
    ///
    /// At speed 100 this returns `cycles` unchanged and does not touch the
    /// remainder accumulator.
    #[inline]
    pub fn scale(&mut self, cycles: Cycles) -> Cycles {
        if self.speed_pct == FULL_SPEED_PCT {
            return cycles;
        }
        let speed = u64::from(self.speed_pct);
        let numer = cycles.get() * 100 + self.carry;
        self.carry = numer % speed;
        Cycles::new(numer / speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_speed_is_identity_and_keeps_no_state() {
        let mut t = Throttle::full();
        for n in [0u64, 1, 3, 1000] {
            assert_eq!(t.scale(Cycles::new(n)), Cycles::new(n));
        }
        assert_eq!(t, Throttle::full());
    }

    #[test]
    fn half_speed_doubles_exactly() {
        let mut t = Throttle::full();
        t.set_speed(50);
        let total: u64 = (0..100).map(|_| t.scale(Cycles::new(3)).get()).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn remainder_accumulates_without_drift() {
        // 1 cycle at 75%: 100/75 = 1 + 25/75 → pattern 1,1,2,1,1,2,...
        let mut t = Throttle::full();
        t.set_speed(75);
        let total: u64 = (0..75).map(|_| t.scale(Cycles::new(1)).get()).sum();
        assert_eq!(total, 100); // 75 cycles * 100/75 exactly
    }

    #[test]
    fn set_speed_clamps_and_reports_old() {
        let mut t = Throttle::full();
        assert_eq!(t.set_speed(10), 100);
        assert_eq!(t.speed(), MIN_SPEED_PCT);
        assert_eq!(t.set_speed(200), MIN_SPEED_PCT);
        assert_eq!(t.speed(), 100);
    }

    #[test]
    fn changing_speed_resets_the_carry() {
        let mut t = Throttle::full();
        t.set_speed(75);
        let _ = t.scale(Cycles::new(1)); // carry = 25
        t.set_speed(50);
        assert_eq!(t.scale(Cycles::new(1)), Cycles::new(2)); // no stale carry
    }
}
