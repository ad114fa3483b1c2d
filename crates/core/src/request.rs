//! The typed admission-request API.
//!
//! [`AdmissionRequest`] replaces the old five-positional-argument
//! `admit(id, mode, request, tw, deadline)` family: one struct carries the
//! whole ask, a fluent builder keeps call sites readable, and
//! [`Placement`] makes the earliest-vs-latest slot policy (the old
//! `admit` / `admit_latest` split) an explicit field instead of a second
//! method name. `Lac::admit(&AdmissionRequest)` is the single entry point;
//! `Lac::admit_batch` amortizes bookkeeping over a FCFS run of requests.
//!
//! [`Feasibility`] is the shared read-only query surface of the production
//! `Lac` and the testkit's brute-force `OracleLac`: both answer the same
//! capacity/usage/fit questions, which is exactly what makes them
//! differentially testable.

use crate::epoch::SloSpec;
use crate::lac::Reservation;
use crate::modes::ExecutionMode;
use crate::target::ResourceRequest;
use cmpqos_types::{Cycles, JobId, SourceId};

/// Where in the timeline the LAC should place the reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Placement {
    /// The earliest feasible slot at or after `now` (Section 5 FCFS).
    #[default]
    Earliest,
    /// The latest slot `[td − duration, td)` that still meets the
    /// deadline, falling back to the earliest feasible slot when the
    /// latest is taken (Section 3.4 places an automatically downgraded
    /// job's fallback reservation as far away as possible). Requests
    /// without a deadline fall back to [`Placement::Earliest`]; the job
    /// is admitted as `Strict` (the downgrade-fallback semantics).
    LatestFeasible,
}

/// One admission request: everything the LAC needs to run the Section 5
/// FCFS test, as a value.
///
/// Construct with [`AdmissionRequest::builder`]; the struct is
/// `#[non_exhaustive]`, so fields may be added without breaking
/// downstream crates.
///
/// # Examples
///
/// ```
/// use cmpqos_core::{AdmissionRequest, ExecutionMode, Lac, LacConfig, ResourceRequest};
/// use cmpqos_types::{Cycles, JobId};
///
/// let mut lac = Lac::new(LacConfig::default());
/// let req = AdmissionRequest::builder(
///     JobId::new(0),
///     ResourceRequest::paper_job(),
///     Cycles::new(1_000),
/// )
/// .deadline(Cycles::new(2_000))
/// .build();
/// assert!(lac.admit(&req).is_accepted());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
pub struct AdmissionRequest {
    /// The job asking for admission.
    pub id: JobId,
    /// Who is asking (the intake's rate-limited principal).
    pub source: SourceId,
    /// The requested execution mode.
    pub mode: ExecutionMode,
    /// The requested resources.
    pub request: ResourceRequest,
    /// Maximum wall-clock time with the full request (tw).
    pub tw: Cycles,
    /// Absolute completion deadline (td), when given.
    pub deadline: Option<Cycles>,
    /// Earliest-feasible (default) or latest-feasible slot placement.
    pub placement: Placement,
    /// Delivered-performance objective, sampled by the adaptive control
    /// plane each epoch. Admission itself never tests it (RUM targets
    /// stay the only admission currency); it is carried so schedulers can
    /// hand it to an installed `EpochController`.
    pub slo: Option<SloSpec>,
}

impl AdmissionRequest {
    /// A fluent builder over the three mandatory fields. Defaults:
    /// [`ExecutionMode::Strict`], source 0, no deadline,
    /// [`Placement::Earliest`].
    #[must_use]
    pub fn builder(id: JobId, request: ResourceRequest, tw: Cycles) -> AdmissionRequestBuilder {
        AdmissionRequestBuilder {
            req: AdmissionRequest {
                id,
                source: SourceId::new(0),
                mode: ExecutionMode::Strict,
                request,
                tw,
                deadline: None,
                placement: Placement::Earliest,
                slo: None,
            },
        }
    }

    /// The reservation a LAC books when it accepts this request at
    /// `start`, or `None` for an Opportunistic job, which holds none.
    ///
    /// The window is `mode.reservation_duration(tw)` long (`tw·(1+X)` for
    /// Elastic(X)); a latest-feasible request with a deadline is booked
    /// as a `tw`-long Strict reservation. The LAC and the GAC's placement
    /// view both derive the window here, so they cannot disagree.
    #[must_use]
    pub fn reservation_at(&self, start: Cycles) -> Option<Reservation> {
        let (mode, duration) = match (self.placement, self.deadline) {
            (Placement::LatestFeasible, Some(_)) => (ExecutionMode::Strict, self.tw),
            _ => (self.mode, self.mode.reservation_duration(self.tw)?),
        };
        Some(Reservation {
            id: self.id,
            start,
            end: start + duration,
            request: self.request,
            mode,
            deadline: self.deadline,
        })
    }
}

/// Fluent builder for [`AdmissionRequest`].
#[derive(Debug, Clone)]
pub struct AdmissionRequestBuilder {
    req: AdmissionRequest,
}

impl AdmissionRequestBuilder {
    /// Sets the requesting source (the rate-limited principal).
    #[must_use]
    pub fn source(mut self, source: SourceId) -> Self {
        self.req.source = source;
        self
    }

    /// Sets the execution mode.
    #[must_use]
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.req.mode = mode;
        self
    }

    /// Sets the absolute completion deadline.
    #[must_use]
    pub fn deadline(mut self, td: Cycles) -> Self {
        self.req.deadline = Some(td);
        self
    }

    /// Clears the deadline (the job queues indefinitely if needed).
    #[must_use]
    pub fn no_deadline(mut self) -> Self {
        self.req.deadline = None;
        self
    }

    /// Sets the slot placement policy.
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.req.placement = placement;
        self
    }

    /// Shorthand for [`Placement::LatestFeasible`] (the old
    /// `admit_latest` behavior).
    #[must_use]
    pub fn latest_feasible(mut self) -> Self {
        self.req.placement = Placement::LatestFeasible;
        self
    }

    /// Declares a delivered-performance objective for the adaptive
    /// control plane to hold.
    #[must_use]
    pub fn slo(mut self, slo: SloSpec) -> Self {
        self.req.slo = Some(slo);
        self
    }

    /// Finishes the request.
    #[must_use]
    pub fn build(self) -> AdmissionRequest {
        self.req
    }
}

/// Read-only feasibility queries shared by the production `Lac` (answered
/// from the occupancy index) and the testkit's `OracleLac` (answered by
/// brute force). Differential tests pin the two implementations against
/// each other.
pub trait Feasibility {
    /// Total node capacity.
    fn capacity(&self) -> ResourceRequest;

    /// The controller's clock.
    fn now(&self) -> Cycles;

    /// Reserved usage at instant `t`.
    fn usage_at(&self, t: Cycles) -> ResourceRequest;

    /// Whether `request` fits on top of existing reservations at every
    /// instant of `[start, end)`.
    fn fits_over(&self, request: &ResourceRequest, start: Cycles, end: Cycles) -> bool;

    /// Earliest `s ∈ [not_before, latest_start]` such that `request` fits
    /// over `[s, s+duration)`.
    fn earliest_feasible(
        &self,
        request: &ResourceRequest,
        duration: Cycles,
        not_before: Cycles,
        latest_start: Cycles,
    ) -> Option<Cycles>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_strict_earliest_no_deadline() {
        let req = AdmissionRequest::builder(
            JobId::new(3),
            ResourceRequest::paper_job(),
            Cycles::new(100),
        )
        .build();
        assert_eq!(req.id, JobId::new(3));
        assert_eq!(req.source, SourceId::new(0));
        assert_eq!(req.mode, ExecutionMode::Strict);
        assert_eq!(req.deadline, None);
        assert_eq!(req.placement, Placement::Earliest);
    }

    #[test]
    fn builder_sets_every_field() {
        let req =
            AdmissionRequest::builder(JobId::new(1), ResourceRequest::paper_job(), Cycles::new(50))
                .source(SourceId::new(9))
                .mode(ExecutionMode::Opportunistic)
                .deadline(Cycles::new(500))
                .latest_feasible()
                .build();
        assert_eq!(req.source, SourceId::new(9));
        assert_eq!(req.mode, ExecutionMode::Opportunistic);
        assert_eq!(req.deadline, Some(Cycles::new(500)));
        assert_eq!(req.placement, Placement::LatestFeasible);
        let req = AdmissionRequestBuilder { req }.no_deadline().build();
        assert_eq!(req.deadline, None);
    }
}
