//! The shared memory channel: fixed access latency plus priority-aware
//! bandwidth queueing.

use cmpqos_types::{ByteSize, Cycles};
use std::fmt;

/// Scheduling priority of a memory request.
///
/// The paper (footnote 2) prioritizes requests from Strict/Elastic(X) jobs
/// over Opportunistic ones so that resource stealing does not inflate the
/// L2-miss penalty `t_m` observed by reserved jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Strict / Elastic(X) traffic.
    Reserved,
    /// Opportunistic traffic (and write-backs).
    Opportunistic,
}

/// Static memory-system parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// DRAM access latency, excluding queueing (paper: 300 cycles).
    pub latency: Cycles,
    /// Peak bandwidth in bytes per core cycle (paper: 6.4 GB/s at 2 GHz =
    /// 3.2 B/cycle).
    pub bytes_per_cycle: f64,
    /// Transfer unit (cache-block size; paper: 64 B).
    pub block_size: ByteSize,
}

impl MemoryConfig {
    /// The paper's configuration: 300-cycle latency, 6.4 GB/s at 2 GHz,
    /// 64-byte blocks.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            latency: Cycles::new(300),
            bytes_per_cycle: 3.2,
            block_size: ByteSize::from_bytes(64),
        }
    }

    /// Channel occupancy of one block transfer, in cycles (rounded up).
    #[must_use]
    pub fn transfer_cycles(&self) -> Cycles {
        Cycles::new((self.block_size.bytes() as f64 / self.bytes_per_cycle).ceil() as u64)
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for MemoryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} latency, {:.1} B/cycle, {} blocks",
            self.latency, self.bytes_per_cycle, self.block_size
        )
    }
}

/// The shared channel with two-level priority queueing.
///
/// The model keeps one backlog of queued transfer work per priority class;
/// backlogs drain at one cycle of work per cycle of simulated time. A
/// `Reserved` request waits only behind reserved backlog; an `Opportunistic`
/// request waits behind both. This is an O(1) approximation of a
/// two-priority work-conserving queue (exact for non-preempted transfers
/// arriving in time order, which is how the system model issues them).
///
/// # Examples
///
/// ```
/// use cmpqos_mem::{MemoryChannel, MemoryConfig, Priority};
/// use cmpqos_types::Cycles;
///
/// let mut ch = MemoryChannel::new(MemoryConfig::paper());
/// let done = ch.request(Cycles::new(0), Priority::Reserved);
/// assert_eq!(done, Cycles::new(300)); // no queueing on an idle channel
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    config: MemoryConfig,
    transfer: Cycles,
    /// Simulation time of the last backlog update.
    last_update: Cycles,
    /// Outstanding transfer work per class, in cycles.
    backlog_reserved: u64,
    backlog_opportunistic: u64,
    /// Totals for utilization/energy accounting.
    requests: u64,
    busy_cycles: u64,
}

impl MemoryChannel {
    /// Creates an idle channel.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self {
            config,
            transfer: config.transfer_cycles(),
            last_update: Cycles::ZERO,
            backlog_reserved: 0,
            backlog_opportunistic: 0,
            requests: 0,
            busy_cycles: 0,
        }
    }

    /// The channel configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Total requests served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total cycles of channel occupancy generated.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Issues a block request at time `now`; returns its completion time
    /// (when the data is available to the core).
    ///
    /// Requests must be issued in non-decreasing time order; issuing one in
    /// the past is clamped to the last update time.
    #[inline]
    pub fn request(&mut self, now: Cycles, priority: Priority) -> Cycles {
        self.drain_to(now);
        let wait = match priority {
            Priority::Reserved => self.backlog_reserved,
            Priority::Opportunistic => self.backlog_reserved + self.backlog_opportunistic,
        };
        match priority {
            Priority::Reserved => self.backlog_reserved += self.transfer.get(),
            Priority::Opportunistic => self.backlog_opportunistic += self.transfer.get(),
        }
        self.requests += 1;
        self.busy_cycles += self.transfer.get();
        self.last_update.max(now) + Cycles::new(wait) + self.config.latency
    }

    /// Registers a write-back transfer at time `now`. Write-backs occupy
    /// bandwidth (low priority) but nothing waits on their completion.
    #[inline]
    pub fn writeback(&mut self, now: Cycles) {
        self.drain_to(now);
        self.backlog_opportunistic += self.transfer.get();
        self.requests += 1;
        self.busy_cycles += self.transfer.get();
    }

    /// Current queued work visible to a request of `priority`, in cycles.
    #[must_use]
    pub fn backlog(&self, priority: Priority) -> Cycles {
        match priority {
            Priority::Reserved => Cycles::new(self.backlog_reserved),
            Priority::Opportunistic => {
                Cycles::new(self.backlog_reserved + self.backlog_opportunistic)
            }
        }
    }

    #[inline]
    fn drain_to(&mut self, now: Cycles) {
        if now <= self.last_update {
            return;
        }
        let mut elapsed = (now - self.last_update).get();
        self.last_update = now;
        // Reserved work drains first (it is at the head of the queue).
        let drain_r = elapsed.min(self.backlog_reserved);
        self.backlog_reserved -= drain_r;
        elapsed -= drain_r;
        let drain_o = elapsed.min(self.backlog_opportunistic);
        self.backlog_opportunistic -= drain_o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> MemoryChannel {
        MemoryChannel::new(MemoryConfig::paper())
    }

    #[test]
    fn paper_transfer_is_20_cycles() {
        assert_eq!(MemoryConfig::paper().transfer_cycles(), Cycles::new(20));
    }

    #[test]
    fn idle_channel_has_pure_latency() {
        let mut c = ch();
        assert_eq!(
            c.request(Cycles::new(100), Priority::Reserved),
            Cycles::new(400)
        );
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut c = ch();
        let t0 = c.request(Cycles::new(0), Priority::Reserved);
        let t1 = c.request(Cycles::new(0), Priority::Reserved);
        assert_eq!(t0, Cycles::new(300));
        assert_eq!(t1, Cycles::new(320)); // waits one transfer
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut c = ch();
        c.request(Cycles::new(0), Priority::Reserved);
        // 20 cycles later the transfer has fully drained.
        let t = c.request(Cycles::new(20), Priority::Reserved);
        assert_eq!(t, Cycles::new(320));
    }

    #[test]
    fn reserved_bypasses_opportunistic_backlog() {
        let mut c = ch();
        for _ in 0..5 {
            c.request(Cycles::new(0), Priority::Opportunistic);
        }
        // Reserved request does not wait behind the 100 cycles of
        // opportunistic work.
        let t = c.request(Cycles::new(0), Priority::Reserved);
        assert_eq!(t, Cycles::new(300));
        // But opportunistic waits behind everything.
        let t = c.request(Cycles::new(0), Priority::Opportunistic);
        assert_eq!(t, Cycles::new(300 + 6 * 20));
    }

    #[test]
    fn writebacks_consume_bandwidth_only() {
        let mut c = ch();
        c.writeback(Cycles::new(0));
        assert_eq!(c.backlog(Priority::Opportunistic), Cycles::new(20));
        assert_eq!(c.backlog(Priority::Reserved), Cycles::new(0));
        assert_eq!(c.requests(), 1);
    }

    #[test]
    fn utilization_counters_accumulate() {
        let mut c = ch();
        c.request(Cycles::new(0), Priority::Reserved);
        c.writeback(Cycles::new(0));
        assert_eq!(c.busy_cycles(), 40);
        assert_eq!(c.requests(), 2);
    }

    #[test]
    fn reserved_drains_before_opportunistic() {
        let mut c = ch();
        c.request(Cycles::new(0), Priority::Reserved); // 20 cycles reserved
        c.request(Cycles::new(0), Priority::Opportunistic); // 20 cycles opp
                                                            // After 30 cycles: reserved fully drained, 10 cycles of opp left.
        let t = c.request(Cycles::new(30), Priority::Opportunistic);
        assert_eq!(t, Cycles::new(30 + 10 + 300));
    }

    #[test]
    fn out_of_order_request_clamps() {
        let mut c = ch();
        c.request(Cycles::new(100), Priority::Reserved);
        // A request "in the past" behaves as if issued at t=100.
        let t = c.request(Cycles::new(50), Priority::Reserved);
        assert_eq!(t, Cycles::new(100 + 20 + 300));
    }

    #[test]
    fn config_display() {
        assert!(MemoryConfig::paper().to_string().contains("300 cycles"));
    }
}
