//! Bus-utilization monitoring.
//!
//! Section 4.2 (footnote 2) of the paper notes that resource stealing can be
//! disabled when the memory bus saturates, since beyond saturation queueing
//! delay is no longer roughly constant (Little's law). [`BusMonitor`]
//! provides the windowed utilization estimate that decision needs.

use cmpqos_types::Cycles;

/// Windowed utilization estimator for the memory channel.
///
/// Tracks busy cycles within the current window; [`BusMonitor::utilization`]
/// reports the *previous completed* window's busy fraction so the signal is
/// stable within a window.
///
/// # Examples
///
/// ```
/// use cmpqos_mem::BusMonitor;
/// use cmpqos_types::Cycles;
///
/// let mut mon = BusMonitor::new(Cycles::new(1000));
/// mon.record_busy(Cycles::new(100), Cycles::new(500));
/// // Window [0, 1000) completes once time passes it:
/// assert_eq!(mon.utilization(Cycles::new(1500)), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct BusMonitor {
    window: Cycles,
    window_start: Cycles,
    busy_in_window: u64,
    last_utilization: f64,
}

impl BusMonitor {
    /// Creates a monitor with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: Cycles) -> Self {
        assert!(window > Cycles::ZERO, "window must be positive");
        Self {
            window,
            window_start: Cycles::ZERO,
            busy_in_window: 0,
            last_utilization: 0.0,
        }
    }

    /// Records `busy` cycles of channel occupancy at time `now`.
    #[inline]
    pub fn record_busy(&mut self, now: Cycles, busy: Cycles) {
        self.roll(now);
        self.busy_in_window += busy.get();
    }

    /// Utilization (busy fraction, clamped to 1.0) of the most recently
    /// completed window as of `now`.
    #[must_use]
    pub fn utilization(&mut self, now: Cycles) -> f64 {
        self.roll(now);
        self.last_utilization
    }

    /// Whether the bus is saturated above `threshold` (e.g. `0.9`).
    #[must_use]
    pub fn saturated(&mut self, now: Cycles, threshold: f64) -> bool {
        self.utilization(now) >= threshold
    }

    #[inline]
    fn roll(&mut self, now: Cycles) {
        while now >= self.window_start + self.window {
            self.last_utilization =
                (self.busy_in_window as f64 / self.window.get() as f64).min(1.0);
            self.busy_in_window = 0;
            self.window_start += self.window;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_reports_previous_window() {
        let mut m = BusMonitor::new(Cycles::new(100));
        m.record_busy(Cycles::new(10), Cycles::new(40));
        assert_eq!(m.utilization(Cycles::new(50)), 0.0); // window not done
        assert_eq!(m.utilization(Cycles::new(100)), 0.4);
    }

    #[test]
    fn empty_windows_reset_utilization() {
        let mut m = BusMonitor::new(Cycles::new(100));
        m.record_busy(Cycles::new(0), Cycles::new(100));
        assert_eq!(m.utilization(Cycles::new(100)), 1.0);
        // Two idle windows later:
        assert_eq!(m.utilization(Cycles::new(300)), 0.0);
    }

    #[test]
    fn clamps_to_one() {
        let mut m = BusMonitor::new(Cycles::new(10));
        m.record_busy(Cycles::new(0), Cycles::new(100));
        assert_eq!(m.utilization(Cycles::new(10)), 1.0);
    }

    #[test]
    fn saturation_threshold() {
        let mut m = BusMonitor::new(Cycles::new(100));
        m.record_busy(Cycles::new(0), Cycles::new(95));
        assert!(m.saturated(Cycles::new(100), 0.9));
        assert!(!m.saturated(Cycles::new(100), 0.99));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = BusMonitor::new(Cycles::ZERO);
    }
}
