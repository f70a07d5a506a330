//! What admission deals in: a deployable [`ModelSpec`], why admission
//! refuses one ([`AdmitError`]), and the per-model cache statistics
//! serving reports carry. The admitted models themselves live in the
//! multi-chip [`crate::cluster::Cluster`].

use oxbar_nn::reference::FilterBank;
use oxbar_nn::Network;
use oxbar_sim::CacheStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A deployable model: the network graph plus its quantized filter banks
/// (one per conv-like layer, in [`Network::conv_like_layers`] order).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Human-readable model name (unique within a registry by convention,
    /// not enforcement).
    pub name: String,
    /// The sequential network graph.
    pub network: Network,
    /// Signed INT-quantized filter banks covering every conv-like layer.
    pub filters: Vec<FilterBank>,
    /// For an autoregressive language model, the full transformer weights
    /// (embeddings and block structure). When set, `network`/`filters`
    /// must be this model's dense stack
    /// ([`oxbar_nn::transformer::LmWeights::network`] /
    /// [`oxbar_nn::transformer::LmWeights::filters`]) so the static
    /// projections serve through the same weight-stationary cache as any
    /// CNN; `None` marks an ordinary feed-forward model.
    pub lm: Option<oxbar_nn::transformer::LmWeights>,
}

/// Why a [`ModelSpec`] was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The network contains a residual `Add` layer; the sequential
    /// device pipeline cannot execute it.
    Residual(String),
    /// The filter banks do not cover every conv-like layer.
    FilterCount {
        /// Conv-like layers in the network.
        expected: usize,
        /// Filter banks provided.
        got: usize,
    },
    /// Strict placement found too few chips with committed room for the
    /// model — replicated policies need `replicas` *distinct* chips, each
    /// with room for a full copy (see
    /// [`ServeEngine::admit_strict`](crate::ServeEngine::admit_strict)).
    Capacity {
        /// The model's full weight-stationary footprint, in cells
        /// (per chip copy).
        footprint_cells: usize,
        /// Distinct chip copies the placement policy demands (1 for
        /// unreplicated policies).
        replicas: usize,
        /// Every candidate chip's cell budget, in chip-index order.
        chip_budgets: Vec<usize>,
        /// Every chip's already-committed cells, in chip-index order.
        committed_cells: Vec<usize>,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Residual(layer) => {
                write!(f, "residual layer `{layer}` is not servable")
            }
            Self::FilterCount { expected, got } => {
                write!(f, "expected {expected} filter banks, got {got}")
            }
            Self::Capacity {
                footprint_cells,
                replicas,
                chip_budgets,
                committed_cells,
            } => {
                if *replicas > 1 {
                    write!(
                        f,
                        "fewer than {replicas} chips can commit {footprint_cells} cells each: \
                         candidates"
                    )?;
                } else {
                    write!(f, "no chip can commit {footprint_cells} cells: candidates")?;
                }
                for (c, (budget, committed)) in chip_budgets.iter().zip(committed_cells).enumerate()
                {
                    write!(
                        f,
                        " chip{c}={}/{budget} cells free",
                        budget.saturating_sub(*committed)
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// Cache statistics of one admitted model, for serving reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCacheStats {
    /// Model name.
    pub name: String,
    /// The chip the model's primary copy is placed on (always 0 on a
    /// single chip).
    pub chip: usize,
    /// The model's tile-cache counters and occupancy, summed over every
    /// chip copy (the budget is the primary's).
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_error_displays_footprint_and_candidates() {
        let err = AdmitError::Capacity {
            footprint_cells: 61_000,
            replicas: 1,
            chip_budgets: vec![50_000, 40_000],
            committed_cells: vec![10_000, 0],
        };
        let shown = err.to_string();
        assert!(shown.contains("61000"), "footprint: {shown}");
        assert!(shown.contains("chip0=40000/50000"), "candidates: {shown}");
        assert!(shown.contains("chip1=40000/40000"), "candidates: {shown}");
    }

    #[test]
    fn capacity_error_names_the_replica_demand() {
        let err = AdmitError::Capacity {
            footprint_cells: 61_000,
            replicas: 2,
            chip_budgets: vec![100_000, 50_000],
            committed_cells: vec![0, 40_000],
        };
        let shown = err.to_string();
        assert!(shown.contains("fewer than 2 chips"), "replicas: {shown}");
        assert!(shown.contains("chip1=10000/50000"), "candidates: {shown}");
    }
}
