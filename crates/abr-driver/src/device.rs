//! The block-device seam: what a measured-day loop needs from the thing
//! it drives, and nothing else.
//!
//! A device is one or more member [`AdaptiveDriver`]s behind a single
//! request interface. A bare driver is a device with one member (itself)
//! and no background maintenance; a volume fans requests out to several
//! members and may run rebuild/scrub windows. The loop talks to the
//! device for traffic and to the members for monitoring and nightly
//! rearrangement, so a new kind of device (a second tier, a cluster)
//! only has to implement this trait to run under the same loop.
//!
//! The associated types keep the per-request path statically dispatched:
//! a bare driver retires a [`Completion`] per call, a volume an optional
//! volume-level completion, and neither is boxed or wrapped.

use crate::driver::{AdaptiveDriver, Completion, DriverError};
use crate::request::{IoRequest, RequestId};
use abr_sim::SimTime;

/// A request-serving device made of adaptive member drivers.
pub trait BlockDevice {
    /// Handle naming an accepted request.
    type RequestId;
    /// What retiring one completion yields.
    type Completion;

    /// Queue a request arriving at `now`.
    fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<Self::RequestId, DriverError>;
    /// When the next in-flight request anywhere in the device completes.
    fn next_completion(&mut self) -> Option<SimTime>;
    /// Retire the completion due at exactly `now`.
    fn complete_next(&mut self, now: SimTime) -> Self::Completion;
    /// Requests queued but not yet dispatched, over all members.
    fn queue_len(&self) -> usize;
    /// Number of member drivers.
    fn n_members(&self) -> usize;
    /// Member `i`, for monitor reads, rearrangement and fault injection.
    fn member_mut(&mut self, i: usize) -> &mut AdaptiveDriver;
    /// When the first maintenance window after `after` opens; `None`
    /// for a device that runs no background maintenance.
    fn next_maintenance(&self, _after: SimTime) -> Option<SimTime> {
        None
    }
    /// Run one maintenance window at `now`.
    fn maintenance_tick(&mut self, _now: SimTime) {}
}

impl BlockDevice for AdaptiveDriver {
    type RequestId = RequestId;
    type Completion = Completion;

    fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<RequestId, DriverError> {
        AdaptiveDriver::submit(self, req, now)
    }
    fn next_completion(&mut self) -> Option<SimTime> {
        AdaptiveDriver::next_completion(self)
    }
    fn complete_next(&mut self, now: SimTime) -> Completion {
        AdaptiveDriver::complete_next(self, now)
    }
    fn queue_len(&self) -> usize {
        AdaptiveDriver::queue_len(self)
    }
    fn n_members(&self) -> usize {
        1
    }
    fn member_mut(&mut self, _i: usize) -> &mut AdaptiveDriver {
        self
    }
}
