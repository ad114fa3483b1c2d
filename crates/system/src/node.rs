//! The CMP node engine.

use crate::config::{SystemConfig, SystemConfigError};
use crate::task::{Placement, SpawnError, Task, TaskCompletion, TaskSpec};
use cmpqos_cache::l2::{Eviction, PartitionError, WayMaskError};
use cmpqos_cache::{DuplicateTagMonitor, L1Cache, SharedL2, VictimClass};
use cmpqos_cpu::{MemOutcome, PerfCounters, Throttle};
use cmpqos_mem::{BandwidthRegulator, BusMonitor, MemoryChannel, Priority};
use cmpqos_types::{CoreId, Cycles, JobId, Ways};
use std::collections::{BTreeMap, VecDeque};

/// Bus-utilization monitoring window.
const BUS_WINDOW: Cycles = Cycles::new(100_000);

#[derive(Debug)]
struct CoreState {
    pinned: Option<JobId>,
    /// The task executing on this core. It lives here, not in
    /// [`CmpNode::tasks`], from dispatch until it is preempted or completes.
    running: Option<Task>,
    last_task: Option<JobId>,
    next_free: Cycles,
    quantum_end: Cycles,
    /// DVFS-style frequency scaler; identity at full speed.
    throttle: Throttle,
}

impl CoreState {
    fn new() -> Self {
        Self {
            pinned: None,
            running: None,
            last_task: None,
            next_free: Cycles::ZERO,
            quantum_end: Cycles::ZERO,
            throttle: Throttle::full(),
        }
    }

    fn running_id(&self) -> Option<JobId> {
        self.running.as_ref().map(|t| t.id)
    }
}

/// How a core's batch ended.
enum BatchEnd {
    /// The core's clock passed the batch limit or reached the deadline.
    Limit,
    /// The quantum expired with floating work waiting.
    Quantum,
    /// The task retired its last instruction.
    Completed,
}

/// Everything below the private L1s: the shared L2, the memory channel,
/// its bandwidth regulator and the bus monitor. A separate struct so a
/// core's batch can hold its task and L1 while it reaches these.
#[derive(Debug)]
struct Uncore {
    l2: SharedL2,
    mem: MemoryChannel,
    bus: BusMonitor,
    regulator: BandwidthRegulator,
    l2_latency: Cycles,
    transfer: Cycles,
    /// `log2` of the L2 block size: monitors observe block addresses.
    block_shift: u32,
}

impl Uncore {
    /// A state-only L2 access (L1 write-backs, flush traffic): updates
    /// cache contents, the monitor and bandwidth, but nothing stalls on it.
    fn touch(
        &mut self,
        core: CoreId,
        monitor: Option<&mut DuplicateTagMonitor>,
        addr: u64,
        when: Cycles,
    ) {
        let out = self.l2.access(core, addr, true);
        if let Some(mon) = monitor {
            mon.observe(out.set, addr >> self.block_shift, out.hit);
        }
        if out.eviction.is_some_and(|ev| ev.dirty) {
            self.writeback(when);
        }
    }

    /// The demand fill of an L1 miss issued at `when`: a read from the
    /// L2's perspective (write-allocate; the dirty bit lives in the L1
    /// until written back). An L2 hit stall sits in the core's clock
    /// domain, so it stretches under the core's DVFS `throttle`; a miss is
    /// paced by the unthrottled off-chip channel instead.
    fn fill(
        &mut self,
        core: CoreId,
        monitor: Option<&mut DuplicateTagMonitor>,
        addr: u64,
        when: Cycles,
        priority: Priority,
        throttle: &mut Throttle,
    ) -> MemOutcome {
        let out = self.l2.access(core, addr, false);
        if let Some(mon) = monitor {
            mon.observe(out.set, addr >> self.block_shift, out.hit);
        }
        if out.hit {
            return MemOutcome::L2Hit {
                stall: throttle.scale(self.l2_latency),
            };
        }
        if out.eviction.is_some_and(|ev| ev.dirty) {
            self.writeback(when);
        }
        // Bandwidth regulation throttles the *core* (its next request is
        // delayed by the extended stall), keeping channel bookkeeping in
        // global time order.
        let issue = when + self.l2_latency;
        let throttle = self.regulator.delay(core.as_usize(), issue, self.transfer);
        let completion = self.mem.request(issue, priority);
        self.bus.record_busy(when, self.transfer);
        MemOutcome::L2Miss {
            stall: completion - when + throttle,
        }
    }

    fn writeback(&mut self, when: Cycles) {
        self.mem.writeback(when);
        self.bus.record_busy(when, self.transfer);
    }
}

/// An event-driven CMP node: `N` cores, private L1s, a shared partitioned
/// L2 and a memory channel, plus pin/timeshare scheduling.
///
/// See the [crate docs](crate) for the role split between this mechanism
/// layer and the QoS policy layer in `cmpqos-core`.
#[derive(Debug)]
pub struct CmpNode {
    cfg: SystemConfig,
    now: Cycles,
    cores: Vec<CoreState>,
    /// Live tasks that are not on a core.
    tasks: BTreeMap<JobId, Task>,
    finished: BTreeMap<JobId, (PerfCounters, TaskCompletion)>,
    /// Ready floating tasks not currently on a core, in round-robin order.
    floating: VecDeque<JobId>,
    l1s: Vec<L1Cache>,
    uncore: Uncore,
    /// Monitors of ids that are not live (a finished task's stays until
    /// detached); a live task carries its own.
    monitors: BTreeMap<JobId, DuplicateTagMonitor>,
    completions: Vec<TaskCompletion>,
}

impl CmpNode {
    /// Creates an idle node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]). Prefer [`CmpNode::try_new`] outside
    /// test code.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(node) => node,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`CmpNode::new`]: validates the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`SystemConfigError`].
    pub fn try_new(cfg: SystemConfig) -> Result<Self, SystemConfigError> {
        cfg.validate()?;
        let l1s = (0..cfg.num_cores).map(|_| L1Cache::new(cfg.l1)).collect();
        let transfer = cfg.memory.transfer_cycles();
        let uncore = Uncore {
            l2: SharedL2::try_new(cfg.l2, cfg.num_cores, cfg.partition_policy)?,
            mem: MemoryChannel::new(cfg.memory),
            bus: BusMonitor::new(BUS_WINDOW),
            regulator: BandwidthRegulator::new(cfg.num_cores, transfer * 10),
            l2_latency: cfg.l2.latency(),
            transfer,
            block_shift: cfg.l2.block_size().bytes().trailing_zeros(),
        };
        Ok(Self {
            cores: (0..cfg.num_cores).map(|_| CoreState::new()).collect(),
            tasks: BTreeMap::new(),
            finished: BTreeMap::new(),
            floating: VecDeque::new(),
            l1s,
            uncore,
            monitors: BTreeMap::new(),
            completions: Vec::new(),
            now: Cycles::ZERO,
            cfg,
        })
    }

    /// The node configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time (everything before this instant has been
    /// processed).
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Spawns a task; it becomes ready at the current simulation time.
    ///
    /// Pinning a core that currently runs a floating task preempts the
    /// floating task back into the shared pool.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError`] for duplicate ids, bad pin targets or empty
    /// budgets.
    pub fn spawn(&mut self, spec: TaskSpec) -> Result<(), SpawnError> {
        if self.is_live(spec.id) {
            return Err(SpawnError::DuplicateId(spec.id));
        }
        if spec.budget.get() == 0 {
            return Err(SpawnError::EmptyBudget);
        }
        if let Placement::Pinned(core) = spec.placement {
            let Some(state) = self.cores.get(core.as_usize()) else {
                return Err(SpawnError::NoSuchCore(core));
            };
            if state.pinned.is_some() {
                return Err(SpawnError::CoreAlreadyPinned(core));
            }
        }
        let id = spec.id;
        let placement = spec.placement;
        let mut task = Task::new(spec, self.now);
        task.monitor = self.monitors.remove(&id);
        self.tasks.insert(id, task);
        match placement {
            Placement::Pinned(core) => {
                self.cores[core.as_usize()].pinned = Some(id);
                self.refresh_core_class(core.as_usize());
            }
            Placement::Floating => self.floating.push_back(id),
        }
        Ok(())
    }

    /// Re-pins a live task to `core` (the automatic-downgrade switch-back
    /// path: an Opportunistic-running job reverting to Strict). A task
    /// already pinned elsewhere releases its old core.
    ///
    /// # Errors
    ///
    /// Returns [`SpawnError::NoSuchCore`] / [`SpawnError::CoreAlreadyPinned`]
    /// for bad targets, or [`SpawnError::DuplicateId`] if the task is not
    /// live (id reported back).
    pub fn repin(&mut self, id: JobId, core: CoreId) -> Result<(), SpawnError> {
        if !self.is_live(id) {
            return Err(SpawnError::DuplicateId(id));
        }
        let Some(state) = self.cores.get(core.as_usize()) else {
            return Err(SpawnError::NoSuchCore(core));
        };
        if state.pinned.is_some() && state.pinned != Some(id) {
            return Err(SpawnError::CoreAlreadyPinned(core));
        }
        // Remove from the floating pool / its current core.
        self.floating.retain(|&j| j != id);
        if let Some(c) = self.cores.iter_mut().find(|c| c.running_id() == Some(id)) {
            let task = c.running.take().expect("found running");
            self.tasks.insert(id, task);
        }
        let task = self.tasks.get_mut(&id).expect("checked live above");
        task.placement = Placement::Pinned(core);
        task.ready_at = task.ready_at.max(self.now);
        // A task that was pinned elsewhere gives its old core back.
        if let Some(old) = self.cores.iter().position(|c| c.pinned == Some(id)) {
            self.cores[old].pinned = None;
            self.refresh_core_class(old);
        }
        self.cores[core.as_usize()].pinned = Some(id);
        self.refresh_core_class(core.as_usize());
        Ok(())
    }

    /// Sets a live task's memory priority (Reserved vs Opportunistic).
    /// Unknown ids are ignored.
    pub fn set_reserved(&mut self, id: JobId, reserved: bool) {
        if let Some(task) = self.live_mut(id) {
            task.priority = if reserved {
                Priority::Reserved
            } else {
                Priority::Opportunistic
            };
        }
        for i in 0..self.cores.len() {
            self.refresh_core_class(i);
        }
    }

    /// Applies a full set of L2 partition targets.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from the cache.
    pub fn set_l2_targets(&mut self, targets: &[Ways]) -> Result<(), PartitionError> {
        self.uncore.l2.set_targets(targets)
    }

    /// [`CmpNode::set_l2_targets`], additionally emitting
    /// `PartitionChanged` to `recorder` at the node's current time.
    ///
    /// # Errors
    ///
    /// Propagates [`PartitionError`] from the cache (nothing is recorded on
    /// error).
    pub fn set_l2_targets_recorded(
        &mut self,
        targets: &[Ways],
        recorder: &mut dyn cmpqos_obs::Recorder,
    ) -> Result<(), PartitionError> {
        let now = self.now;
        self.uncore.l2.set_targets_recorded(targets, now, recorder)
    }

    /// Current L2 partition targets.
    #[must_use]
    pub fn l2_targets(&self) -> &[Ways] {
        self.uncore.l2.targets()
    }

    /// Read-only view of the shared L2 (stats, occupancy).
    #[must_use]
    pub fn l2(&self) -> &SharedL2 {
        &self.uncore.l2
    }

    /// L2 ways still usable (associativity minus masked faulty ways).
    #[must_use]
    pub fn l2_usable_ways(&self) -> Ways {
        Ways::new(self.uncore.l2.effective_associativity())
    }

    /// Masks a faulty L2 way (see [`SharedL2::mask_way`]): the way is
    /// flushed and excluded from future fills, and partition targets are
    /// re-normalized to the shrunken associativity.
    ///
    /// # Errors
    ///
    /// Propagates [`WayMaskError`] from the cache.
    pub fn mask_l2_way(&mut self, way: u16) -> Result<Vec<Eviction>, WayMaskError> {
        self.uncore.l2.mask_way(way)
    }

    /// Attaches a duplicate-tag monitor to a live task, modelling
    /// `original_ways` (its allocation before stealing).
    pub fn attach_monitor(&mut self, id: JobId, original_ways: Ways) {
        let sets = self.cfg.l2.geometry().sets();
        let monitor = DuplicateTagMonitor::new(original_ways, sets, self.cfg.shadow_sample_every);
        match self.live_mut(id) {
            Some(task) => task.monitor = Some(monitor),
            None => {
                self.monitors.insert(id, monitor);
            }
        }
    }

    /// Detaches and returns a task's monitor.
    pub fn detach_monitor(&mut self, id: JobId) -> Option<DuplicateTagMonitor> {
        match self.live_mut(id) {
            Some(task) => task.monitor.take(),
            None => self.monitors.remove(&id),
        }
    }

    /// The task's monitor, if attached.
    #[must_use]
    pub fn monitor(&self, id: JobId) -> Option<&DuplicateTagMonitor> {
        match self.live(id) {
            Some(task) => task.monitor.as_ref(),
            None => self.monitors.get(&id),
        }
    }

    /// Performance counters of a live or finished task.
    #[must_use]
    pub fn perf(&self, id: JobId) -> Option<&PerfCounters> {
        self.live(id)
            .map(|t| t.ctx.perf())
            .or_else(|| self.finished.get(&id).map(|(p, _)| p))
    }

    /// Remaining instruction budget of a live task.
    #[must_use]
    pub fn remaining(&self, id: JobId) -> Option<u64> {
        self.live(id).map(|t| t.remaining)
    }

    /// Whether the task is still live (spawned and not completed).
    #[must_use]
    pub fn is_live(&self, id: JobId) -> bool {
        self.live(id).is_some()
    }

    /// The task currently executing on `core`.
    #[must_use]
    pub fn running_on(&self, core: CoreId) -> Option<JobId> {
        self.cores
            .get(core.as_usize())
            .and_then(CoreState::running_id)
    }

    /// The task pinned to `core`.
    #[must_use]
    pub fn pinned_on(&self, core: CoreId) -> Option<JobId> {
        self.cores.get(core.as_usize()).and_then(|c| c.pinned)
    }

    /// Drains the completion records accumulated since the last call.
    #[must_use = "dropping drained completions loses the jobs' terminal records"]
    pub fn take_completions(&mut self) -> Vec<TaskCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Completion record of a finished task.
    #[must_use]
    pub fn completion(&self, id: JobId) -> Option<TaskCompletion> {
        self.finished.get(&id).map(|(_, c)| *c)
    }

    /// Caps `core`'s off-chip bandwidth to `percent` of peak (100 =
    /// unregulated). Set from a job's reserved bandwidth share so that
    /// admitted bandwidth vectors (`Σ ≤ 100%`) cannot be trampled.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_bandwidth_share(&mut self, core: CoreId, percent: u8) {
        self.uncore.regulator.set_share(core.as_usize(), percent);
    }

    /// The configured bandwidth share of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn bandwidth_share(&self, core: CoreId) -> u8 {
        self.uncore.regulator.share(core.as_usize())
    }

    /// Sets `core`'s DVFS-style speed (percent of full frequency, clamped
    /// to `[cmpqos_cpu::throttle::MIN_SPEED_PCT, 100]`), returning the
    /// previous speed. Core-domain cycles — compute time and L2-hit stalls
    /// — stretch by `100/percent`; off-chip memory stalls are unaffected
    /// (DRAM does not slow down when a core does).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_core_speed(&mut self, core: CoreId, percent: u8) -> u8 {
        self.cores[core.as_usize()].throttle.set_speed(percent)
    }

    /// The current DVFS-style speed of `core`, in percent.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_speed(&self, core: CoreId) -> u8 {
        self.cores[core.as_usize()].throttle.speed()
    }

    /// Memory-bus utilization over the last completed window.
    #[must_use]
    pub fn bus_utilization(&mut self) -> f64 {
        let now = self.now;
        self.uncore.bus.utilization(now)
    }

    /// Runs the node until simulation time `deadline`: every instruction
    /// *starting* before `deadline` is executed.
    ///
    /// Each batch runs the active core with the earliest clock (the lowest
    /// index on a tie) until its clock passes every other active core's.
    /// Dispatch only has work after an outside call, a completion, a
    /// preemption or a dispatch that changed something, so it runs only
    /// then.
    pub fn run_until(&mut self, deadline: Cycles) {
        let mut dirty = true;
        loop {
            if dirty {
                dirty = self.dispatch();
            }
            let Some((core, limit)) = self.next_batch(deadline) else {
                break;
            };
            dirty |= self.run_core(core, limit, deadline);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until all live tasks complete or `hard_cap` is reached.
    /// Returns the time the last task finished (or `hard_cap`).
    pub fn run_to_completion(&mut self, hard_cap: Cycles) -> Cycles {
        while self.has_live_tasks() && self.now < hard_cap {
            let next = (self.now + Cycles::new(1_000_000)).min(hard_cap);
            self.run_until(next);
        }
        self.finished
            .values()
            .map(|(_, c)| c.finished_at)
            .max()
            .unwrap_or(self.now)
    }

    // ----- task lookup --------------------------------------------------

    fn live(&self, id: JobId) -> Option<&Task> {
        self.tasks.get(&id).or_else(|| {
            self.cores
                .iter()
                .find_map(|c| c.running.as_ref().filter(|t| t.id == id))
        })
    }

    fn live_mut(&mut self, id: JobId) -> Option<&mut Task> {
        find_live(&mut self.tasks, &mut self.cores, id)
    }

    fn has_live_tasks(&self) -> bool {
        !self.tasks.is_empty() || self.cores.iter().any(|c| c.running.is_some())
    }

    // ----- scheduling ---------------------------------------------------

    /// Victim class of a core: Reserved iff its pinned occupant holds
    /// reserved resources.
    fn refresh_core_class(&mut self, core: usize) {
        let reserved = self.cores[core]
            .pinned
            .and_then(|id| self.live(id))
            .is_some_and(|t| t.priority == Priority::Reserved);
        let class = if reserved {
            VictimClass::Reserved
        } else {
            VictimClass::Opportunistic
        };
        self.uncore.l2.set_class(CoreId::new(core as u32), class);
    }

    /// Preempts floating tasks from newly pinned cores and puts a task on
    /// every idle core that has one. Returns whether anything changed.
    fn dispatch(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.cores.len() {
            // Lazy preemption: a floating task on a newly pinned core yields.
            let core = &self.cores[i];
            if let (Some(cur), Some(pin)) = (core.running_id(), core.pinned) {
                if cur != pin {
                    self.preempt(i);
                    changed = true;
                }
            }
            if self.cores[i].running.is_some() {
                continue;
            }
            // A pinned core waits for its pinned task (not live yet or
            // anymore: `None`); a free core takes the next floating task.
            let task = match self.cores[i].pinned {
                Some(p) => self.tasks.remove(&p),
                None => self.floating.pop_front().map(|id| {
                    self.tasks
                        .remove(&id)
                        .expect("floating tasks are live and off-core")
                }),
            };
            if let Some(task) = task {
                self.assign(i, task);
                changed = true;
            }
        }
        changed
    }

    fn assign(&mut self, core: usize, mut task: Task) {
        let start = self.cores[core].next_free.max(task.ready_at);
        task.started_at.get_or_insert(start);
        let mut begin = start;
        if let Some(outgoing) = self.cores[core].last_task.filter(|&o| o != task.id) {
            begin += self.cfg.context_switch_cost;
            if self.cfg.flush_l1_on_switch {
                self.flush_l1(core, outgoing, begin);
            }
        }
        let quantum = self.cfg.timeslice.max(Cycles::new(1));
        let c = &mut self.cores[core];
        c.last_task = Some(task.id);
        c.running = Some(task);
        c.next_free = begin;
        c.quantum_end = begin + quantum;
    }

    fn preempt(&mut self, core: usize) {
        let c = &mut self.cores[core];
        let Some(mut task) = c.running.take() else {
            return;
        };
        task.ready_at = c.next_free;
        if task.placement == Placement::Floating {
            self.floating.push_back(task.id);
        }
        self.tasks.insert(task.id, task);
    }

    fn complete(&mut self, core: usize) {
        let c = &mut self.cores[core];
        let mut task = c.running.take().expect("a completing core runs a task");
        let id = task.id;
        let record = TaskCompletion {
            id,
            started_at: task.started_at.expect("dispatch stamps the start"),
            finished_at: c.next_free,
        };
        if c.pinned == Some(id) {
            c.pinned = None;
        }
        if let Some(monitor) = task.monitor.take() {
            self.monitors.insert(id, monitor);
        }
        self.completions.push(record);
        self.finished.insert(id, (*task.ctx.perf(), record));
        self.refresh_core_class(core);
    }

    /// The next batch, from one pass over the cores: the active core with
    /// the earliest clock before `deadline` (the lowest index on a tie),
    /// and how far it may run — up to the earliest clock among the other
    /// active cores, so none of them falls behind.
    fn next_batch(&self, deadline: Cycles) -> Option<(usize, Cycles)> {
        let mut best: Option<(usize, Cycles)> = None;
        let mut limit = deadline;
        for (i, c) in self.cores.iter().enumerate() {
            if c.running.is_none() {
                continue;
            }
            let t = c.next_free;
            match best {
                Some((_, b)) if t >= b => limit = limit.min(t),
                _ if t < deadline => {
                    if let Some((_, b)) = best {
                        limit = limit.min(b);
                    }
                    best = Some((i, t));
                }
                _ => {}
            }
        }
        best.map(|(i, _)| (i, limit))
    }

    /// Runs `core`'s task while its clock is at most `limit` and before
    /// `deadline`. The core keeps running at a clock equal to `limit`.
    /// Returns whether the batch ended in a completion or a preemption.
    fn run_core(&mut self, core: usize, limit: Cycles, deadline: Cycles) -> bool {
        let Self {
            cfg,
            cores,
            floating,
            l1s,
            uncore,
            ..
        } = self;
        let state = &mut cores[core];
        let task = state.running.as_mut().expect("a picked core runs a task");
        let l1 = &mut l1s[core];
        let core_id = CoreId::new(core as u32);
        let priority = task.priority;
        let quantum = cfg.timeslice.max(Cycles::new(1));
        let rotate = !floating.is_empty();
        let mut clock = state.next_free;
        let end = loop {
            if clock > limit || clock >= deadline {
                break BatchEnd::Limit;
            }
            // Quantum rotation for floating tasks.
            if clock >= state.quantum_end {
                if rotate {
                    break BatchEnd::Quantum;
                }
                state.quantum_end = clock + quantum;
            }
            let (raw_base, access) = task.ctx.issue();
            // DVFS throttle: compute cycles stretch in the core's clock domain.
            let base = state.throttle.scale(raw_base);
            let cost = match access {
                Some(acc) => {
                    let when = clock + base;
                    let l1_out = l1.access(acc.addr(), acc.is_write());
                    let outcome = if l1_out.hit {
                        MemOutcome::L1Hit
                    } else {
                        // Dirty L1 victim written back into the L2.
                        if let Some(wb) = l1_out.writeback {
                            uncore.touch(core_id, task.monitor.as_mut(), wb, when);
                        }
                        let mon = task.monitor.as_mut();
                        let throttle = &mut state.throttle;
                        uncore.fill(core_id, mon, acc.addr(), when, priority, throttle)
                    };
                    task.ctx.complete(base, outcome);
                    base + outcome.stall()
                }
                None => {
                    task.ctx.complete_compute(base);
                    base
                }
            };
            task.remaining -= 1;
            clock += cost;
            if task.remaining == 0 {
                break BatchEnd::Completed;
            }
        };
        state.next_free = clock;
        match end {
            BatchEnd::Limit => false,
            BatchEnd::Quantum => {
                self.preempt(core);
                true
            }
            BatchEnd::Completed => {
                self.complete(core);
                true
            }
        }
    }

    /// Writes `core`'s dirty L1 lines back to the L2 on a switch away from
    /// `outgoing`, which may be off-core, on another core or finished.
    fn flush_l1(&mut self, core: usize, outgoing: JobId, when: Cycles) {
        let dirty = self.l1s[core].flush();
        let core_id = CoreId::new(core as u32);
        let Self {
            tasks,
            cores,
            monitors,
            uncore,
            ..
        } = self;
        let mut monitor = match find_live(tasks, cores, outgoing) {
            Some(task) => task.monitor.as_mut(),
            None => monitors.get_mut(&outgoing),
        };
        for addr in dirty {
            uncore.touch(core_id, monitor.as_deref_mut(), addr, when);
        }
    }
}

/// The live task `id`, whether off a core (`tasks`) or on one.
fn find_live<'a>(
    tasks: &'a mut BTreeMap<JobId, Task>,
    cores: &'a mut [CoreState],
    id: JobId,
) -> Option<&'a mut Task> {
    match tasks.get_mut(&id) {
        Some(task) => Some(task),
        None => cores
            .iter_mut()
            .find_map(|c| c.running.as_mut().filter(|t| t.id == id)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_trace::spec;
    use cmpqos_types::Instructions;

    fn spec_task(id: u32, bench: &str, budget: u64, placement: Placement) -> TaskSpec {
        let profile = spec::benchmark(bench).expect("known benchmark");
        TaskSpec {
            id: JobId::new(id),
            source: Box::new(profile.instantiate(100 + u64::from(id), u64::from(id) << 40)),
            budget: Instructions::new(budget),
            placement,
            reserved: matches!(placement, Placement::Pinned(_)),
        }
    }

    fn paper_node() -> CmpNode {
        CmpNode::new(SystemConfig::paper())
    }

    #[test]
    fn single_pinned_task_completes_with_sane_ipc() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(7), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        node.spawn(spec_task(
            0,
            "gobmk",
            200_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        let end = node.run_to_completion(Cycles::new(100_000_000));
        assert!(end > Cycles::ZERO);
        let done = node.take_completions();
        assert_eq!(done.len(), 1);
        let perf = node.perf(JobId::new(0)).unwrap();
        assert_eq!(perf.instructions().get(), 200_000);
        let ipc = perf.ipc();
        assert!(ipc > 0.1 && ipc < 1.0, "gobmk IPC {ipc}");
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let mut cfg = SystemConfig::paper();
        cfg.num_cores = 0;
        assert_eq!(
            CmpNode::try_new(cfg).err(),
            Some(SystemConfigError::BadCoreCount)
        );
        assert!(CmpNode::try_new(SystemConfig::paper()).is_ok());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut node = paper_node();
        node.spawn(spec_task(1, "gobmk", 10, Placement::Floating))
            .unwrap();
        let err = node.spawn(spec_task(1, "gobmk", 10, Placement::Floating));
        assert_eq!(err.unwrap_err(), SpawnError::DuplicateId(JobId::new(1)));
    }

    #[test]
    fn pinning_an_occupied_core_rejected() {
        let mut node = paper_node();
        node.spawn(spec_task(0, "gobmk", 10, Placement::Pinned(CoreId::new(2))))
            .unwrap();
        let err = node.spawn(spec_task(1, "gobmk", 10, Placement::Pinned(CoreId::new(2))));
        assert_eq!(
            err.unwrap_err(),
            SpawnError::CoreAlreadyPinned(CoreId::new(2))
        );
    }

    #[test]
    fn floating_tasks_timeshare_one_free_core() {
        let mut node = paper_node();
        // Pin cores 0..3, leaving core 3 free.
        for i in 0..3u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                300_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.spawn(spec_task(10, "gobmk", 50_000, Placement::Floating))
            .unwrap();
        node.spawn(spec_task(11, "gobmk", 50_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(3_000_000));
        // Both floating tasks must have made progress (round-robin), and
        // only on core 3.
        let p10 = node.perf(JobId::new(10)).unwrap().instructions().get();
        let p11 = node.perf(JobId::new(11)).unwrap().instructions().get();
        assert!(p10 > 0 && p11 > 0, "both made progress: {p10} {p11}");
    }

    #[test]
    fn pinned_preempts_floating_on_its_core() {
        let mut node = paper_node();
        node.spawn(spec_task(5, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(100_000));
        // The floating task is running somewhere (core 0, first free).
        assert_eq!(node.running_on(CoreId::new(0)), Some(JobId::new(5)));
        // Pin a reserved task everywhere.
        for i in 0..4u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                100_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.run_until(Cycles::new(200_000));
        for i in 0..4u32 {
            assert_eq!(node.running_on(CoreId::new(i)), Some(JobId::new(i)));
        }
        // The floating task waits (no eligible core), still live.
        assert!(node.is_live(JobId::new(5)));
    }

    #[test]
    fn completions_record_start_and_finish() {
        let mut node = paper_node();
        node.spawn(spec_task(
            0,
            "namd",
            10_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000));
        let c = node.completion(JobId::new(0)).unwrap();
        assert_eq!(c.started_at, Cycles::ZERO);
        assert!(c.finished_at > c.started_at);
        assert!(!node.is_live(JobId::new(0)));
        // The core's pin is released on completion.
        assert_eq!(node.pinned_on(CoreId::new(0)), None);
    }

    #[test]
    fn monitors_observe_the_tasks_accesses() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(7), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        node.spawn(spec_task(
            0,
            "bzip2",
            100_000,
            Placement::Pinned(CoreId::new(0)),
        ))
        .unwrap();
        node.attach_monitor(JobId::new(0), Ways::new(7));
        node.run_to_completion(Cycles::new(100_000_000));
        let mon = node.monitor(JobId::new(0)).unwrap();
        assert!(mon.sampled_accesses() > 0, "monitor saw traffic");
        // At an unchanged allocation the main tags track the shadow tags.
        assert!(!mon.exceeded(cmpqos_types::Percent::new(50.0)));
    }

    #[test]
    fn later_spawn_starts_later() {
        let mut node = paper_node();
        node.run_until(Cycles::new(500_000));
        node.spawn(spec_task(
            0,
            "namd",
            1_000,
            Placement::Pinned(CoreId::new(1)),
        ))
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000));
        let c = node.completion(JobId::new(0)).unwrap();
        assert!(c.started_at >= Cycles::new(500_000));
    }

    #[test]
    fn repin_moves_a_floating_task() {
        let mut node = paper_node();
        node.spawn(spec_task(0, "gobmk", 1_000_000, Placement::Floating))
            .unwrap();
        node.run_until(Cycles::new(10_000));
        node.repin(JobId::new(0), CoreId::new(3)).unwrap();
        node.run_until(Cycles::new(50_000));
        assert_eq!(node.running_on(CoreId::new(3)), Some(JobId::new(0)));
        assert_eq!(node.pinned_on(CoreId::new(3)), Some(JobId::new(0)));
    }

    #[test]
    fn zero_budget_rejected() {
        let mut node = paper_node();
        let err = node.spawn(spec_task(0, "gobmk", 0, Placement::Floating));
        assert_eq!(err.unwrap_err(), SpawnError::EmptyBudget);
    }

    #[test]
    fn parallel_pinned_tasks_progress_concurrently() {
        let mut node = paper_node();
        node.set_l2_targets(&[Ways::new(4); 4]).unwrap();
        for i in 0..4u32 {
            node.spawn(spec_task(
                i,
                "gobmk",
                100_000,
                Placement::Pinned(CoreId::new(i)),
            ))
            .unwrap();
        }
        node.run_until(Cycles::new(1_000_000));
        for i in 0..4u32 {
            let done = node.perf(JobId::new(i)).unwrap().instructions().get();
            assert!(done > 10_000, "core {i} executed {done}");
        }
    }

    /// Runs a scaled-down bzip2 alone with `ways` of L2 and returns its CPI.
    fn scaled_bzip2_cpi(ways: u16, budget: u64) -> f64 {
        const K: u64 = 16;
        let mut node = CmpNode::new(SystemConfig::paper_scaled(K));
        node.set_l2_targets(&[Ways::new(ways), Ways::ZERO, Ways::ZERO, Ways::ZERO])
            .unwrap();
        let profile = spec::scaled("bzip2", K).unwrap();
        node.spawn(TaskSpec {
            id: JobId::new(0),
            source: Box::new(profile.instantiate(42, 0)),
            budget: Instructions::new(budget),
            placement: Placement::Pinned(CoreId::new(0)),
            reserved: true,
        })
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000_000));
        node.perf(JobId::new(0)).unwrap().cpi()
    }

    #[test]
    fn more_cache_means_faster_for_sensitive_benchmark() {
        let slow_cpi = scaled_bzip2_cpi(2, 400_000);
        let fast_cpi = scaled_bzip2_cpi(14, 400_000);
        assert!(
            slow_cpi > fast_cpi * 1.15,
            "bzip2 CPI should react to capacity: {slow_cpi:.2} vs {fast_cpi:.2}"
        );
    }

    /// Runs a scaled gobmk pinned to core 0 at the given speed; returns CPI.
    fn throttled_gobmk_cpi(speed: u8) -> f64 {
        const K: u64 = 16;
        let mut node = CmpNode::new(SystemConfig::paper_scaled(K));
        assert_eq!(node.core_speed(CoreId::new(0)), 100);
        let old = node.set_core_speed(CoreId::new(0), speed);
        assert_eq!(old, 100);
        let profile = spec::scaled("gobmk", K).unwrap();
        node.spawn(TaskSpec {
            id: JobId::new(0),
            source: Box::new(profile.instantiate(42, 0)),
            budget: Instructions::new(100_000),
            placement: Placement::Pinned(CoreId::new(0)),
            reserved: true,
        })
        .unwrap();
        node.run_to_completion(Cycles::new(10_000_000_000));
        node.perf(JobId::new(0)).unwrap().cpi()
    }

    #[test]
    fn throttled_core_runs_proportionally_slower() {
        let full = throttled_gobmk_cpi(100);
        let half = throttled_gobmk_cpi(50);
        // Core-domain cycles double; memory-miss stalls don't scale, so
        // CPI grows markedly but stays well under 2x.
        assert!(
            half > full * 1.3 && half < full * 2.05,
            "half-speed CPI {half:.2} vs full {full:.2}"
        );
    }
}
