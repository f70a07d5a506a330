//! Deterministic fault schedules for a serving fleet.
//!
//! Real PCM crossbar fleets run with partial failure as the steady
//! state: a chip's control plane dies while its programmed arrays
//! survive. This module models chip kills **deterministically** — every
//! kill is keyed on the serving scheduler's *dispatch round* (a logical
//! tick), never on wall clock — so a fixed [`FaultPlan`] produces the
//! same failure sequence on every run, across worker counts, and in CI.
//! Accuracy loss from PCM drift is not a scheduled event: tile aging
//! derives it from the drift law, and the serving engine's aging monitor
//! reports it.
//!
//! A [`FaultPlan`] is a schedule only: a list of [`FaultEvent`]s, each
//! naming a dispatch round and a chip. Executors carry no fault state;
//! the serving engine reads the plan to decide where each batch runs and
//! what it sheds.
//!
//! PCM non-volatility matters here: a **killed** chip's programmed
//! array state survives, so [`crate::DeviceExecutor::snapshot`] still
//! reads it and a serving layer can recover its resident models onto
//! healthy hardware via [`crate::DeviceExecutor::restore_at`].

use serde::{Deserialize, Serialize};

/// Structured failure of one device execute, returned by
/// [`crate::DeviceExecutor::try_forward_batch`] instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The network itself cannot run on the device (a model-level
    /// refusal).
    Unsupported(oxbar_nn::reference::UnsupportedLayer),
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Unsupported(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One scheduled fault: which chip dies at which dispatch round. Rounds
/// are the serving engine's global dispatch counter — round `r` is the
/// `r`-th batch round dispatched since the engine was built, across all
/// drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Kill chip `chip` just before round `round` dispatches.
    ChipKill {
        /// Dispatch round the kill lands on.
        round: u64,
        /// Cluster chip index.
        chip: usize,
    },
}

impl FaultEvent {
    /// The dispatch round this event fires on.
    #[must_use]
    pub fn round(&self) -> u64 {
        let Self::ChipKill { round, .. } = self;
        *round
    }

    /// The chip this event targets.
    #[must_use]
    pub fn chip(&self) -> usize {
        let Self::ChipKill { chip, .. } = self;
        *chip
    }
}

/// A deterministic fault schedule: the full list of failures a run will
/// experience, keyed on dispatch rounds.
///
/// An empty plan (the [`Default`]) schedules nothing — engines built
/// without faults behave byte-identically to engines that predate the
/// fault layer.
///
/// # Examples
///
/// ```
/// use oxbar_sim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .kill_chip(3, 1)   // round 3: chip 1 dies
///     .kill_chip(7, 2);  // round 7: chip 2 dies
/// assert_eq!(plan.events().len(), 2);
/// assert_eq!(plan.events()[1].round(), 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Schedules a chip kill just before round `round` dispatches.
    #[must_use]
    pub fn kill_chip(self, round: u64, chip: usize) -> Self {
        self.with(FaultEvent::ChipKill { round, chip })
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every scheduled event, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.events().is_empty());
    }

    #[test]
    fn events_filter_by_round() {
        let plan = FaultPlan::new()
            .kill_chip(2, 0)
            .kill_chip(2, 1)
            .kill_chip(4, 0);
        let at = |round| plan.events().iter().filter(|e| e.round() == round).count();
        assert_eq!(at(2), 2);
        assert_eq!(at(3), 0);
        assert_eq!(at(4), 1);
        assert_eq!(plan.events().iter().map(FaultEvent::chip).max(), Some(1));
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::new().kill_chip(7, 3).kill_chip(9, 1);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }
}
