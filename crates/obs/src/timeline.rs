//! Timeline reconstruction: Figure-7-style job-lifetime bands out of a
//! recorded event stream.

use std::collections::BTreeMap;

use cmpqos_types::{Cycles, JobId, NodeId, Ways};

use crate::event::{Event, FaultKind, Health, Knob, Mode, Record, RejectCause};

/// A span of a job's lifetime spent in one execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    /// The mode during this span.
    pub mode: Mode,
    /// Span start (cycle the job started or switched into this mode).
    pub from: Cycles,
    /// Span end; `None` while the job is still running at end of stream.
    pub to: Option<Cycles>,
}

/// Everything the event stream says about one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobTimeline {
    /// When the job was submitted, and the mode it asked for.
    pub submitted: Option<(Cycles, Mode)>,
    /// When the LAC admitted it, and the reserved start cycle.
    pub admitted: Option<(Cycles, Cycles)>,
    /// When and why the LAC rejected it.
    pub rejected: Option<(Cycles, RejectCause)>,
    /// When it was auto-downgraded, and from/to which modes.
    pub downgraded: Option<(Cycles, Mode, Mode)>,
    /// When it began executing.
    pub started: Option<Cycles>,
    /// When it finished, and whether the deadline was met.
    pub completed: Option<(Cycles, bool)>,
    /// `(deadline, finished)` when the deadline was missed.
    pub deadline_missed: Option<(Cycles, Cycles)>,
    /// Mode bands from start to completion — the Figure-7 view.
    pub bands: Vec<Band>,
    /// Ways stolen from this job over its lifetime (events, one way each).
    pub steals_taken: u64,
    /// Ways handed back on steal cancellation.
    pub ways_returned: u64,
    /// Shadow-tag guard trips attributed to this job.
    pub guard_trips: u64,
    /// The node the global admission controller last placed this job on.
    pub placed: Option<(Cycles, NodeId)>,
    /// When and why the job's reservation was revoked by a capacity loss.
    pub revoked: Option<(Cycles, NodeId, RejectCause)>,
    /// Migrations off a failed node, in stream order: `(at, from, to)`.
    pub migrations: Vec<(Cycles, NodeId, NodeId)>,
    /// Admission probes to this job that were lost in transit.
    pub probe_losses: u64,
    /// Elastic downgrades that absorbed a capacity loss: `(at, node, ways_cut)`.
    pub fault_downgrades: Vec<(Cycles, NodeId, Ways)>,
    /// Epoch samples that found this job above its SLO target.
    pub slo_violations: u64,
    /// Lease expirations on this job's placement: `(at, node)`.
    pub lease_expirations: Vec<(Cycles, NodeId)>,
}

impl JobTimeline {
    /// The mode the job was running in at cycle `at`, if any.
    #[must_use]
    pub fn mode_at(&self, at: Cycles) -> Option<Mode> {
        self.bands
            .iter()
            .find(|b| b.from <= at && b.to.is_none_or(|end| at < end))
            .map(|b| b.mode)
    }

    /// Wall-clock from start to completion, when both happened.
    #[must_use]
    pub fn wall_clock(&self) -> Option<Cycles> {
        let (done, _) = self.completed?;
        Some(done.saturating_sub(self.started?))
    }

    fn close_band(&mut self, at: Cycles) {
        if let Some(open) = self.bands.iter_mut().rev().find(|b| b.to.is_none()) {
            open.to = Some(at);
        }
    }
}

/// A reconstructed view over one recorded run: per-job lifetimes plus the
/// partition-retarget history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    label: Option<String>,
    jobs: BTreeMap<JobId, JobTimeline>,
    partition_changes: Vec<(Cycles, Vec<Ways>)>,
    faults: Vec<(Cycles, NodeId, FaultKind)>,
    health_changes: Vec<(Cycles, NodeId, Health, Health)>,
    circuit_trips: Vec<(Cycles, NodeId, u64, u64)>,
    circuit_restores: Vec<(Cycles, NodeId)>,
    recoveries: Vec<(Cycles, NodeId, u64, u64)>,
    link_changes: Vec<(Cycles, NodeId, bool)>,
    reconciles: Vec<(Cycles, NodeId, u64, u64)>,
    membership_changes: Vec<(Cycles, NodeId, bool)>,
    lease_renewals: Vec<(Cycles, NodeId, u64)>,
    messages_dropped: u64,
    knob_changes: Vec<(Cycles, Knob, i64, i64)>,
}

impl Timeline {
    /// Builds a timeline from records (single run; a second
    /// `Event::RunStarted` resets nothing — use [`Timeline::per_run`] for
    /// multi-run streams).
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut t = Timeline::default();
        for r in records {
            t.apply(r);
        }
        t
    }

    /// Parses a JSONL event stream (as written by
    /// [`crate::JsonlRecorder`]) into one timeline.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first malformed line.
    pub fn from_jsonl(text: &str) -> Result<Self, serde_json::Error> {
        Ok(Self::from_records(&Self::parse_jsonl(text)?))
    }

    /// Parses a JSONL stream and splits it into one timeline per
    /// `Event::RunStarted` marker (records before the first marker form an
    /// unlabeled leading timeline).
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first malformed line.
    pub fn per_run(text: &str) -> Result<Vec<Timeline>, serde_json::Error> {
        let records = Self::parse_jsonl(text)?;
        let mut runs: Vec<Timeline> = Vec::new();
        for r in &records {
            let starts_run = matches!(r.event, Event::RunStarted { .. });
            if starts_run || runs.is_empty() {
                runs.push(Timeline::default());
            }
            runs.last_mut().expect("just pushed").apply(r);
        }
        Ok(runs)
    }

    fn parse_jsonl(text: &str) -> Result<Vec<Record>, serde_json::Error> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(serde_json::from_str)
            .collect()
    }

    /// The `RunStarted` label, when the stream carried one.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The timeline of one job.
    #[must_use]
    pub fn job(&self, id: JobId) -> Option<&JobTimeline> {
        self.jobs.get(&id)
    }

    /// All jobs seen, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobTimeline)> {
        self.jobs.iter().map(|(&id, t)| (id, t))
    }

    /// Number of jobs seen.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Partition retargets, in stream order.
    #[must_use]
    pub fn partition_changes(&self) -> &[(Cycles, Vec<Ways>)] {
        &self.partition_changes
    }

    /// Injected faults, in stream order.
    #[must_use]
    pub fn faults(&self) -> &[(Cycles, NodeId, FaultKind)] {
        &self.faults
    }

    /// Node health transitions, in stream order: `(at, node, from, to)`.
    #[must_use]
    pub fn health_changes(&self) -> &[(Cycles, NodeId, Health, Health)] {
        &self.health_changes
    }

    /// Circuit-breaker trips, in stream order: `(at, node, rejected, window)`.
    #[must_use]
    pub fn circuit_trips(&self) -> &[(Cycles, NodeId, u64, u64)] {
        &self.circuit_trips
    }

    /// Circuit-breaker restores, in stream order.
    #[must_use]
    pub fn circuit_restores(&self) -> &[(Cycles, NodeId)] {
        &self.circuit_restores
    }

    /// Journal recoveries, in stream order: `(at, node, replayed, lost)`.
    #[must_use]
    pub fn recoveries(&self) -> &[(Cycles, NodeId, u64, u64)] {
        &self.recoveries
    }

    /// Control-plane link changes, in stream order: `(at, node,
    /// partitioned)` — `true` when the link was severed, `false` when it
    /// was healed.
    #[must_use]
    pub fn link_changes(&self) -> &[(Cycles, NodeId, bool)] {
        &self.link_changes
    }

    /// Rejoin reconciliations, in stream order: `(at, node,
    /// orphans_revoked, placements_repaired)`.
    #[must_use]
    pub fn reconciles(&self) -> &[(Cycles, NodeId, u64, u64)] {
        &self.reconciles
    }

    /// Membership transitions, in stream order: `(at, node, joined)` —
    /// `true` when the node entered `Live`, `false` when it drained to
    /// `Left`.
    #[must_use]
    pub fn membership_changes(&self) -> &[(Cycles, NodeId, bool)] {
        &self.membership_changes
    }

    /// Heartbeat-driven lease renewals, in stream order: `(at, node,
    /// leases_renewed)`.
    #[must_use]
    pub fn lease_renewals(&self) -> &[(Cycles, NodeId, u64)] {
        &self.lease_renewals
    }

    /// Control-plane messages lost in transit over the whole run.
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Adaptive-control actuator moves, in stream order: `(at, knob, old,
    /// new)`.
    #[must_use]
    pub fn knob_changes(&self) -> &[(Cycles, Knob, i64, i64)] {
        &self.knob_changes
    }

    fn apply(&mut self, r: &Record) {
        let at = r.at;
        match &r.event {
            Event::RunStarted { label } => {
                if self.label.is_none() {
                    self.label = Some(label.clone());
                }
            }
            Event::PartitionChanged { targets } => {
                self.partition_changes.push((at, targets.clone()));
            }
            Event::FaultInjected { node, fault } => {
                self.faults.push((at, *node, *fault));
            }
            Event::NodeHealthChanged { node, from, to } => {
                self.health_changes.push((at, *node, *from, *to));
            }
            Event::CircuitTripped {
                node,
                rejected,
                window,
            } => {
                self.circuit_trips.push((at, *node, *rejected, *window));
            }
            Event::CircuitRestored { node } => {
                self.circuit_restores.push((at, *node));
            }
            Event::ControllerRecovered {
                node,
                replayed,
                lost,
            } => {
                self.recoveries.push((at, *node, *replayed, *lost));
            }
            Event::LinkPartitioned { node } => {
                self.link_changes.push((at, *node, true));
            }
            Event::LinkHealed { node } => {
                self.link_changes.push((at, *node, false));
            }
            Event::MessageDropped { .. } => {
                self.messages_dropped += 1;
            }
            Event::Reconciled {
                node,
                orphans_revoked,
                placements_repaired,
            } => {
                self.reconciles
                    .push((at, *node, *orphans_revoked, *placements_repaired));
            }
            Event::NodeJoined { node } => {
                self.membership_changes.push((at, *node, true));
            }
            Event::NodeDrained { node } => {
                self.membership_changes.push((at, *node, false));
            }
            Event::LeaseRenewed { node, leases } => {
                self.lease_renewals.push((at, *node, *leases));
            }
            Event::KnobChanged { knob, old, new } => {
                self.knob_changes.push((at, *knob, *old, *new));
            }
            event => {
                let Some(id) = event.job() else { return };
                let job = self.jobs.entry(id).or_default();
                match event {
                    Event::Submitted { mode, .. } => job.submitted = Some((at, *mode)),
                    Event::Admitted { start, .. } => job.admitted = Some((at, *start)),
                    Event::Rejected { cause, .. } => job.rejected = Some((at, *cause)),
                    Event::Downgraded { from, to, .. } => {
                        job.downgraded = Some((at, *from, *to));
                    }
                    Event::Started { mode, .. } => {
                        job.started = Some(at);
                        job.bands.push(Band {
                            mode: *mode,
                            from: at,
                            to: None,
                        });
                    }
                    Event::SwitchedBack { to, .. } => {
                        job.close_band(at);
                        job.bands.push(Band {
                            mode: *to,
                            from: at,
                            to: None,
                        });
                    }
                    Event::StealTaken { .. } => job.steals_taken += 1,
                    Event::StealReturned { returned, .. } => {
                        job.ways_returned += u64::from(returned.get());
                    }
                    Event::GuardTripped { .. } => job.guard_trips += 1,
                    Event::Completed { met_deadline, .. } => {
                        job.close_band(at);
                        job.completed = Some((at, *met_deadline));
                    }
                    Event::DeadlineMissed {
                        deadline, finished, ..
                    } => job.deadline_missed = Some((*deadline, *finished)),
                    Event::ProbeLost { .. } => job.probe_losses += 1,
                    Event::Placed { node, .. } => job.placed = Some((at, *node)),
                    Event::Migrated { from, to, .. } => {
                        job.migrations.push((at, *from, *to));
                        job.placed = Some((at, *to));
                    }
                    Event::ReservationRevoked { node, cause, .. } => {
                        job.revoked = Some((at, *node, *cause));
                    }
                    Event::DowngradedUnderFault { node, ways_cut, .. } => {
                        job.fault_downgrades.push((at, *node, *ways_cut));
                    }
                    Event::LeaseExpired { node, .. } => {
                        job.lease_expirations.push((at, *node));
                    }
                    Event::SloViolated { .. } => job.slo_violations += 1,
                    Event::RunStarted { .. }
                    | Event::KnobChanged { .. }
                    | Event::PartitionChanged { .. }
                    | Event::FaultInjected { .. }
                    | Event::NodeHealthChanged { .. }
                    | Event::CircuitTripped { .. }
                    | Event::CircuitRestored { .. }
                    | Event::ControllerRecovered { .. }
                    | Event::LinkPartitioned { .. }
                    | Event::LinkHealed { .. }
                    | Event::MessageDropped { .. }
                    | Event::Reconciled { .. }
                    | Event::NodeJoined { .. }
                    | Event::NodeDrained { .. }
                    | Event::LeaseRenewed { .. } => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::CoreId;

    fn rec(at: u64, event: Event) -> Record {
        Record {
            at: Cycles::new(at),
            event,
        }
    }

    fn downgraded_job_stream() -> Vec<Record> {
        let j = JobId::new(1);
        vec![
            rec(
                0,
                Event::RunStarted {
                    label: "test/cell".into(),
                },
            ),
            rec(
                5,
                Event::Submitted {
                    job: j,
                    mode: Mode::Strict,
                },
            ),
            rec(
                5,
                Event::Admitted {
                    job: j,
                    start: Cycles::new(5),
                },
            ),
            rec(
                5,
                Event::Downgraded {
                    job: j,
                    from: Mode::Strict,
                    to: Mode::Opportunistic,
                },
            ),
            rec(
                6,
                Event::Started {
                    job: j,
                    core: Some(CoreId::new(0)),
                    mode: Mode::Opportunistic,
                },
            ),
            rec(
                100,
                Event::SwitchedBack {
                    job: j,
                    to: Mode::Strict,
                },
            ),
            rec(
                250,
                Event::Completed {
                    job: j,
                    met_deadline: true,
                },
            ),
        ]
    }

    #[test]
    fn reconstructs_figure7_bands() {
        let records = downgraded_job_stream();
        let t = Timeline::from_records(&records);
        assert_eq!(t.label(), Some("test/cell"));
        assert_eq!(t.job_count(), 1);
        let job = t.job(JobId::new(1)).unwrap();
        assert_eq!(job.submitted, Some((Cycles::new(5), Mode::Strict)));
        assert_eq!(
            job.bands,
            vec![
                Band {
                    mode: Mode::Opportunistic,
                    from: Cycles::new(6),
                    to: Some(Cycles::new(100)),
                },
                Band {
                    mode: Mode::Strict,
                    from: Cycles::new(100),
                    to: Some(Cycles::new(250)),
                },
            ]
        );
        assert_eq!(job.mode_at(Cycles::new(50)), Some(Mode::Opportunistic));
        assert_eq!(job.mode_at(Cycles::new(100)), Some(Mode::Strict));
        assert_eq!(job.mode_at(Cycles::new(300)), None);
        assert_eq!(job.wall_clock(), Some(Cycles::new(244)));
    }

    #[test]
    fn jsonl_round_trip_and_run_segmentation() {
        let mut text = String::new();
        for run in ["a", "b"] {
            for r in {
                let mut v = downgraded_job_stream();
                v[0] = rec(0, Event::RunStarted { label: run.into() });
                v
            } {
                text.push_str(&serde_json::to_string(&r).unwrap());
                text.push('\n');
            }
        }
        let single = Timeline::from_jsonl(&text).unwrap();
        assert_eq!(single.label(), Some("a"));
        let runs = Timeline::per_run(&text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].label(), Some("b"));
        assert_eq!(runs[1].job_count(), 1);
        assert!(runs[1].job(JobId::new(1)).unwrap().completed.is_some());
    }

    #[test]
    fn membership_and_lease_events_land_in_the_timeline() {
        let j = JobId::new(9);
        let records = vec![
            rec(
                10,
                Event::NodeJoined {
                    node: NodeId::new(4),
                },
            ),
            rec(
                20,
                Event::LeaseRenewed {
                    node: NodeId::new(4),
                    leases: 3,
                },
            ),
            rec(
                30,
                Event::LeaseExpired {
                    job: j,
                    node: NodeId::new(4),
                },
            ),
            rec(
                40,
                Event::NodeDrained {
                    node: NodeId::new(4),
                },
            ),
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(
            t.membership_changes(),
            &[
                (Cycles::new(10), NodeId::new(4), true),
                (Cycles::new(40), NodeId::new(4), false),
            ]
        );
        assert_eq!(t.lease_renewals(), &[(Cycles::new(20), NodeId::new(4), 3)]);
        let job = t.job(j).unwrap();
        assert_eq!(
            job.lease_expirations,
            vec![(Cycles::new(30), NodeId::new(4))]
        );
    }

    #[test]
    fn partition_changes_are_ordered() {
        let records = vec![
            rec(
                10,
                Event::PartitionChanged {
                    targets: vec![Ways::new(8), Ways::new(8)],
                },
            ),
            rec(
                20,
                Event::PartitionChanged {
                    targets: vec![Ways::new(12), Ways::new(4)],
                },
            ),
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.partition_changes().len(), 2);
        assert_eq!(t.partition_changes()[1].0, Cycles::new(20));
        assert_eq!(t.partition_changes()[1].1[0], Ways::new(12));
    }
}
