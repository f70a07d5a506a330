//! Multi-chip model placement and routing: a [`Cluster`] of per-chip
//! registries under one serving engine.
//!
//! One photonic crossbar chip holds a finite pool of PCM tiles; a fleet
//! deployment shards its model catalog across several chips. The cluster
//! layer owns that sharding:
//!
//! - **placement** — at admission, a model is pinned to one chip by a
//!   deterministic [`PlacementPolicy`] over *committed* footprints (the
//!   cells each chip's placed models would occupy fully resident), so the
//!   same admission sequence always produces the same layout;
//! - **budgets** — each chip enforces its own cell budget
//!   with the same LRU whole-model eviction the single-chip registry
//!   used;
//! - **migration** — before evicting, an over-budget chip offers its LRU
//!   victim to any sibling chip with room; the model's executor moves
//!   there with its programmed tiles
//!   ([`oxbar_sim::DeviceExecutor::rehome`]), so migration changes
//!   *where* a model serves from, never *what* it answers.
//!
//! A 1-chip cluster has no migration target, so its budget pass only
//! evicts, least recently used first.
//!
//! Chip health has one owner, the cluster. Failure has one rule,
//! [`Cluster::chip_health`]: every question about a chip's health passes
//! the dispatch count it is asked at, and a chip is failed once its
//! [`FaultPlan`] kill has passed. Drift degradation has one scan,
//! `Cluster::begin_pass`, at each drain boundary.

use crate::registry::{AdmitError, ModelCacheStats, ModelSpec};
use crate::request::ModelId;
use oxbar_nn::reference::UnsupportedLayer;
use oxbar_nn::TensorShape;
use oxbar_sim::{DeviceExecutor, SimConfig};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tiles one drain boundary marks for recalibration per chip — bounds
/// the re-derivation work a single drain commits its reads to.
const MAX_RECALS_PER_DRAIN: usize = 16;

/// Handle to one chip of a [`Cluster`], in chip-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChipId(pub usize);

/// Operational health of one chip at a dispatch count.
///
/// `Healthy ⇄ Degraded` (an accuracy-budget breach and the
/// post-recalibration heal, both found by the drain-boundary scan) and
/// `{Healthy, Degraded} → Failed` (a planned chip kill the dispatch count
/// has passed; terminal within a run). `Failed` chips never serve;
/// `Degraded` chips serve but the scheduler prefers healthy replicas
/// when routing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChipHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// Drift-degraded: a resident tile is past the accuracy budget. Still
    /// serving, deprioritized by replica routing.
    Degraded,
    /// Control plane down: the chip cannot execute. Its non-volatile
    /// programmed state stays readable, so its models recover by moving
    /// it to a serving chip.
    Failed,
}

impl ChipHealth {
    /// Stable lowercase name, for reports and wire frames.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
        }
    }

    /// Whether a chip in this state can execute batches at all.
    #[must_use]
    pub fn serves(&self) -> bool {
        !matches!(self, Self::Failed)
    }
}

impl fmt::Display for ChipHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic chip-kill schedule: the chips a run loses and when,
/// keyed on the serving engine's global batch dispatch counter (a
/// logical tick, never wall clock), so a fixed plan fails the same chips
/// at the same points on every run and at every worker count. A kill at
/// round `r` lands just before the `r`-th dispatched batch. PCM is
/// non-volatile, so a killed chip's programmed state stays readable, and
/// its models recover by moving it to a serving chip. The [`Default`]
/// plan kills nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    kills: Vec<ChipKill>,
}

/// One scheduled kill: `chip` dies just before round `round` dispatches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ChipKill {
    round: u64,
    chip: usize,
}

impl FaultPlan {
    /// An empty plan: no faults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules chip `chip` to die just before round `round` dispatches.
    #[must_use]
    pub fn kill_chip(mut self, round: u64, chip: usize) -> Self {
        self.kills.push(ChipKill { round, chip });
        self
    }
}

/// How a [`Cluster`] picks the chip a newly admitted model lives on.
///
/// Both policies are pure functions of the committed footprints at
/// admission time, so placement is deterministic for a given admission
/// sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The lowest-indexed chip whose committed footprint leaves room for
    /// the model (ties to admission order, like a bin-packing first fit).
    #[default]
    FirstFit,
    /// The chip with the smallest committed footprint among those with
    /// room (lowest index on ties) — spreads load for cross-chip
    /// parallelism.
    LeastLoaded,
    /// Keep each model resident on `k` distinct chips (least-committed
    /// first, lowest index on ties), so requests load-balance across
    /// replicas and a chip failure fails over without recovery. Every
    /// replica executor shares the model's admission seed, so replicas
    /// answer byte-identically and failover is invisible in outputs.
    /// `Replicated(1)` behaves like [`PlacementPolicy::LeastLoaded`].
    Replicated(usize),
}

/// Per-chip bookkeeping of a [`Cluster`]: the chip's cell budget, the
/// footprint committed to it by placement, its drift health and its
/// counters (reported through [`ChipStats`]).
struct ChipRegistry {
    budget: usize,
    /// Summed full footprints of the models placed on this chip (what
    /// placement has promised, independent of current residency).
    committed_cells: usize,
    evictions: u64,
    migrations_in: u64,
    migrations_out: u64,
    /// Set by [`Cluster::begin_pass`] while a resident tile is past the
    /// accuracy budget. Failure is not stored: the fault plan decides it.
    degraded: bool,
    /// Fault-charged retries: batches re-routed off this chip after it
    /// failed.
    retries: u64,
    /// Requests shed because this chip failed and no replica could meet
    /// their deadline.
    sheds: u64,
}

impl ChipRegistry {
    fn new(budget: usize) -> Self {
        Self {
            budget,
            committed_cells: 0,
            evictions: 0,
            migrations_in: 0,
            migrations_out: 0,
            degraded: false,
            retries: 0,
            sheds: 0,
        }
    }
}

/// Serializable per-chip serving statistics, for engine reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChipStats {
    /// Chip index.
    pub chip: usize,
    /// The chip's cell budget.
    pub budget_cells: usize,
    /// Summed cache occupancy of the chip's models, in cells.
    pub occupancy_cells: usize,
    /// Models currently placed on the chip.
    pub models: usize,
    /// Whole-model evictions the chip's budget has forced.
    pub evictions: u64,
    /// Models migrated onto the chip.
    pub migrations_in: u64,
    /// Models migrated off the chip.
    pub migrations_out: u64,
    /// Tile-cache hits summed over the chip's models.
    pub hits: u64,
    /// Tile-cache misses summed over the chip's models.
    pub misses: u64,
    /// The chip's health at the dispatch count the stats were taken at.
    pub health: ChipHealth,
    /// Fault-charged retries: batches re-routed off this chip after it
    /// failed.
    pub retries: u64,
    /// Requests shed while failing over away from this chip.
    pub sheds: u64,
}

impl ChipStats {
    /// `hits / (hits + misses)`, or 0 for an idle chip.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the drain-boundary scan ([`Cluster::begin_pass`]) has done since
/// the cluster was created, summed over chips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DriftStats {
    /// Recalibration passes: one per chip per boundary that marked tiles.
    pub recalibrations: u64,
    /// Tiles those passes marked; each re-derives at fresh-program state
    /// at its next read.
    pub recalibrated_tiles: u64,
    /// Healthy→Degraded transitions (a resident tile past the budget).
    pub drift_budget_breaches: u64,
    /// Degraded→Healthy transitions (no resident tile past the budget).
    pub drift_heals: u64,
}

/// One chip's copy of a model: where it lives and the executor that
/// serves it there. Replicated models hold several residencies; slot 0
/// is the *primary* (what [`Cluster::chip_of`] / [`Cluster::executor`]
/// report, preserving the single-residency API).
struct Residency {
    /// The chip this copy lives on (may change via migration).
    chip: usize,
    executor: DeviceExecutor,
}

struct ModelEntry {
    spec: ModelSpec,
    /// Monotone use stamp for LRU eviction (0 = never used).
    last_use: u64,
    /// Full weight-stationary footprint in crossbar cells (per replica).
    footprint_cells: usize,
    /// Every chip copy of the model, primary first. All residencies
    /// share one admission-seeded config, so they answer byte-identically.
    residencies: Vec<Residency>,
}

impl ModelEntry {
    /// The primary residency (slot 0 — always present).
    fn primary(&self) -> &Residency {
        &self.residencies[0]
    }
}

/// Admitted models sharded across a fleet of chips, each chip with its
/// own weight-stationary cell budget.
///
/// Admission pins each model to one chip (see [`PlacementPolicy`]) and
/// seeds its executor from `(base seed, admission index)` — the *global*
/// admission index, not a per-chip one, so a model's device noise is
/// independent of the cluster layout.
pub struct Cluster {
    base: SimConfig,
    placement: PlacementPolicy,
    chips: Vec<ChipRegistry>,
    entries: Vec<ModelEntry>,
    /// The chip-kill schedule every health question reads.
    faults: FaultPlan,
    /// LRU use stamp: +1 per [`Self::touch`].
    lru: u64,
    /// The virtual tick [`Self::set_clocks`] last set; a moved executor
    /// starts there.
    tick: u64,
    /// The accuracy budget in dispatch ticks, fixed by the base device
    /// config (`None`: tiles do not age, or never slip half an LSB — the
    /// boundary scan then only sets clocks).
    drift_budget: Option<u64>,
    drift: DriftStats,
    recoveries: u64,
    /// Tiles [`Self::prewarm`] has programmed, over every residency.
    prewarmed_tiles: AtomicU64,
}

impl Cluster {
    /// Creates a cluster with one chip per entry of `chip_budgets`. Each
    /// admitted model's device config is `base` with a model-specific
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if `chip_budgets` is empty.
    #[must_use]
    pub(crate) fn new(base: SimConfig, chip_budgets: &[usize], placement: PlacementPolicy) -> Self {
        assert!(!chip_budgets.is_empty(), "a cluster has at least one chip");
        Self {
            drift_budget: DeviceExecutor::new(base.clone()).drift_budget_ticks(),
            base,
            placement,
            chips: chip_budgets.iter().map(|&b| ChipRegistry::new(b)).collect(),
            entries: Vec::new(),
            faults: FaultPlan::new(),
            lru: 0,
            tick: 0,
            drift: DriftStats::default(),
            recoveries: 0,
            prewarmed_tiles: AtomicU64::new(0),
        }
    }

    /// Kills chips on `plan`'s schedule (see [`Self::chip_health`]).
    #[must_use]
    pub(crate) fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Validates a spec (residual layers, filter coverage) without
    /// placing it.
    fn validate(spec: &ModelSpec) -> Result<(), AdmitError> {
        UnsupportedLayer::check(&spec.network).map_err(|e| AdmitError::Residual(e.layer))?;
        let expected = spec.network.conv_like_layers().count();
        if spec.filters.len() != expected {
            return Err(AdmitError::FilterCount {
                expected,
                got: spec.filters.len(),
            });
        }
        Ok(())
    }

    /// How many chip copies the placement policy keeps per model.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        match self.placement {
            PlacementPolicy::Replicated(k) => k.max(1),
            _ => 1,
        }
    }

    /// The chips the placement policy picks for a `footprint`-cell
    /// model, primary first, or `None` when committed footprints leave
    /// room for fewer copies than the policy demands: the chips with
    /// room, in index order under first fit and least-committed first
    /// (lowest index on ties) otherwise, as many as the policy keeps.
    fn place(&self, footprint: usize) -> Option<Vec<usize>> {
        let mut order: Vec<usize> = (0..self.chips.len())
            .filter(|&i| self.chips[i].committed_cells + footprint <= self.chips[i].budget)
            .collect();
        if self.placement != PlacementPolicy::FirstFit {
            order.sort_by_key(|&i| (self.chips[i].committed_cells, i));
        }
        order.truncate(self.replica_count());
        (order.len() == self.replica_count()).then_some(order)
    }

    /// Permissive fallback when strict placement has no room: the
    /// least-committed chips (lowest index on ties), as many distinct
    /// ones as the policy wants and the cluster has.
    fn fallback_placement(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.chips.len()).collect();
        order.sort_by_key(|&i| (self.chips[i].committed_cells, i));
        order.truncate(self.replica_count().min(self.chips.len()));
        order
    }

    /// Admits a model, assigning it the next [`ModelId`], a chip, and a
    /// dedicated executor seeded from `(base seed, admission index)`.
    ///
    /// Placement is permissive: when no chip's committed footprint leaves
    /// room, the model still lands on the least-committed chip (lowest
    /// index on ties) and the chip's LRU eviction absorbs the pressure:
    /// over-budget admission thrashes rather than fails. Use
    /// [`Self::admit_strict`] to refuse instead.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError`] if the network is residual or the filter
    /// banks do not cover its conv-like layers.
    pub(crate) fn admit(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        Self::validate(&spec)?;
        let footprint = self.footprint_of(&spec);
        let chips = self
            .place(footprint)
            .unwrap_or_else(|| self.fallback_placement());
        Ok(self.admit_on(spec, footprint, &chips))
    }

    /// [`Self::admit`] that refuses models no chip has committed room
    /// for, with an [`AdmitError::Capacity`] naming the offending
    /// footprint and the candidate chip budgets.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError`] for residual networks, uncovered filter
    /// banks, or a footprint no chip can commit to.
    pub(crate) fn admit_strict(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        Self::validate(&spec)?;
        let footprint = self.footprint_of(&spec);
        match self.place(footprint) {
            Some(chips) => Ok(self.admit_on(spec, footprint, &chips)),
            None => Err(AdmitError::Capacity {
                footprint_cells: footprint,
                replicas: self.replica_count(),
                chip_budgets: self.chips.iter().map(|c| c.budget).collect(),
                committed_cells: self.chips.iter().map(|c| c.committed_cells).collect(),
            }),
        }
    }

    /// A model's full footprint on the base array geometry (placement is
    /// geometry-driven; every chip shares the base array size).
    fn footprint_of(&self, spec: &ModelSpec) -> usize {
        DeviceExecutor::new(self.base.clone()).model_footprint_cells(&spec.network)
    }

    fn admit_on(&mut self, spec: ModelSpec, footprint_cells: usize, chips: &[usize]) -> ModelId {
        let index = self.entries.len();
        // One seeded config shared by every replica: a model's device
        // noise is a function of its admission index alone, so replicas
        // answer byte-identically and failover never changes outputs.
        let config = self
            .base
            .clone()
            .with_seed(crate::request::request_seed(self.base.seed, index as u64));
        let residencies = chips
            .iter()
            .map(|&chip| {
                self.chips[chip].committed_cells += footprint_cells;
                Residency {
                    chip,
                    executor: DeviceExecutor::new(config.clone())
                        .with_cache_budget(self.chips[chip].budget),
                }
            })
            .collect();
        self.entries.push(ModelEntry {
            spec,
            last_use: 0,
            footprint_cells,
            residencies,
        });
        ModelId(index)
    }

    /// Number of admitted models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no model has been admitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of chips.
    #[must_use]
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// The chip `id`'s *primary* residency is currently placed on.
    #[must_use]
    pub fn chip_of(&self, id: ModelId) -> ChipId {
        ChipId(self.entries[id.0].primary().chip)
    }

    /// Every chip `id` is resident on, primary first.
    #[must_use]
    pub fn residencies(&self, id: ModelId) -> Vec<ChipId> {
        self.entries[id.0]
            .residencies
            .iter()
            .map(|r| ChipId(r.chip))
            .collect()
    }

    /// The admitted spec behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this cluster.
    #[must_use]
    pub fn spec(&self, id: ModelId) -> &ModelSpec {
        &self.entries[id.0].spec
    }

    /// The model's input tensor shape (what its requests must carry).
    #[must_use]
    pub fn input_shape(&self, id: ModelId) -> TensorShape {
        self.spec(id).network.input()
    }

    /// The model's primary weight-stationary executor.
    #[must_use]
    pub fn executor(&self, id: ModelId) -> &DeviceExecutor {
        &self.entries[id.0].primary().executor
    }

    /// The model's executor on a specific chip, or `None` when `id` has
    /// no residency there.
    #[must_use]
    pub fn executor_on(&self, id: ModelId, chip: ChipId) -> Option<&DeviceExecutor> {
        self.entries[id.0]
            .residencies
            .iter()
            .find(|r| r.chip == chip.0)
            .map(|r| &r.executor)
    }

    /// Marks `id` as the most recently used model (LRU bookkeeping).
    pub(crate) fn touch(&mut self, id: ModelId) {
        self.lru += 1;
        self.entries[id.0].last_use = self.lru;
    }

    /// Programs every residency of `id` its chip holds ahead of its
    /// traffic, with one discarded zero-input forward each, which claims
    /// every tile through the forward's single-flight path and warms the
    /// executor's arena pool (a discarded execution changes no later
    /// result). A residency is skipped when its chip's occupancy, less
    /// its own cells, plus the model's footprint exceeds the chip's
    /// budget: warming it would only program tiles the next budget pass
    /// migrates or evicts unread. Returns the tiles programmed, the
    /// misses those forwards add (also counted in
    /// [`crate::EngineStats::prewarmed_tiles`]): each missing, stale or
    /// overflow tile once, none for a warm or skipped residency. A
    /// deployment step: the engine never calls it.
    pub fn prewarm(&self, id: ModelId) -> usize {
        let entry = &self.entries[id.0];
        let spec = &entry.spec;
        let shape = spec.network.input();
        let zeros = oxbar_nn::reference::Tensor3::new(shape, vec![0; shape.elements()]);
        let programmed: u64 = entry
            .residencies
            .iter()
            .map(|r| {
                let before = r.executor.cache_stats();
                let others = self.chip_occupancy(ChipId(r.chip)) - before.cells;
                if others + entry.footprint_cells > self.chips[r.chip].budget {
                    return 0;
                }
                r.executor
                    .try_forward_batch(&spec.network, &[&zeros], &spec.filters)
                    .expect("`Cluster::validate` admits no residual network");
                r.executor.cache_stats().misses - before.misses
            })
            .sum();
        self.prewarmed_tiles
            .fetch_add(programmed, Ordering::Relaxed);
        programmed as usize
    }

    /// Tiles [`Self::prewarm`] has programmed since the cluster was
    /// created, summed over every residency it warmed.
    pub(crate) fn prewarmed_tiles(&self) -> u64 {
        self.prewarmed_tiles.load(Ordering::Relaxed)
    }

    /// Enforces every chip's cell budget at dispatch count `dispatched`,
    /// returning how many models were evicted. The pass repeatedly takes
    /// the lowest-indexed over-budget chip, selects its
    /// least-recently-used resident model (ties to the lowest admission
    /// index), and first offers it to a sibling chip with occupancy room
    /// — **migration**: the residency moves there with its programmed
    /// tiles ([`Self::move_residency`]) — falling back to eviction (tile
    /// cache cleared) when no sibling can take it. A model migrates at
    /// most once per pass: a hot potato that lands on another over-budget
    /// chip is evicted there rather than bounced again, so the pass
    /// terminates with *every* chip within budget. On a 1-chip cluster
    /// there is never a migration target, so the pass only evicts. Chips
    /// failed at `dispatched` are skipped entirely: they serve nothing,
    /// and their non-volatile state is left intact for recovery.
    pub(crate) fn enforce_budget(&mut self, dispatched: u64) -> usize {
        let mut evicted = 0;
        let mut moved: HashSet<(usize, usize)> = HashSet::new();
        while let Some(chip) = (0..self.chips.len()).find(|&c| {
            self.serves(c, dispatched) && self.chip_occupancy(ChipId(c)) > self.chips[c].budget
        }) {
            let (victim, slot) = self
                .entries
                .iter()
                .enumerate()
                .flat_map(|(idx, e)| {
                    e.residencies
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| r.chip == chip && r.executor.cache_stats().cells > 0)
                        .map(move |(slot, _)| (idx, slot, e.last_use))
                })
                .min_by_key(|&(idx, slot, last_use)| (last_use, idx, slot))
                .map(|(idx, slot, _)| (idx, slot))
                .expect("occupancy > 0 implies a resident model");
            match self.migration_target(victim, slot, dispatched) {
                Some(dest) if !moved.contains(&(victim, slot)) => {
                    self.migrate_residency(victim, slot, dest);
                    moved.insert((victim, slot));
                }
                _ => {
                    self.entries[victim].residencies[slot]
                        .executor
                        .clear_cache();
                    self.chips[chip].evictions += 1;
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// The chip a victim residency could migrate to: a sibling whose
    /// current occupancy leaves room for the victim's resident cells.
    /// Commitment headroom is deliberately *not* required — a chip only
    /// over-occupies after a permissive overflow admission, in which case
    /// no sibling has committed room either, and demanding it would turn
    /// every hot-spot into an eviction. Occupancy room suffices: moving
    /// the resident state cannot push the destination over budget *now*,
    /// and if the destination's own models later return, its enforcement
    /// pass resolves the pressure the same way. Chips failed at
    /// `dispatched` and chips holding a copy of the model (the victim's
    /// own included) are never targets. Deterministic: the least-occupied
    /// eligible sibling, lowest index on ties.
    fn migration_target(&self, victim: usize, slot: usize, dispatched: u64) -> Option<usize> {
        let entry = &self.entries[victim];
        let resident = entry.residencies[slot].executor.cache_stats().cells;
        let copies: Vec<usize> = entry.residencies.iter().map(|r| r.chip).collect();
        (0..self.chips.len())
            .filter(|&c| !copies.contains(&c) && self.serves(c, dispatched))
            .map(|c| (self.chip_occupancy(ChipId(c)), c))
            .filter(|&(occ, c)| occ + resident <= self.chips[c].budget)
            .min()
            .map(|(_, c)| c)
    }

    /// Moves a model's primary residency to another chip. Kept as the
    /// single-residency migration entry point (tests exercise it to
    /// stage hot spots deliberately).
    #[cfg(test)]
    pub(crate) fn migrate(&mut self, victim: usize, dest: usize) {
        self.migrate_residency(victim, 0, dest);
    }

    /// Migrates one residency to another chip ([`Self::move_residency`]),
    /// counting the move on both chips.
    fn migrate_residency(&mut self, victim: usize, slot: usize, dest: usize) {
        let from = self.move_residency(victim, slot, dest);
        self.chips[from].migrations_out += 1;
        self.chips[dest].migrations_in += 1;
    }

    /// Moves residency `slot` of model `model` to chip `dest` and returns
    /// the chip it left. PCM is non-volatile, so the executor keeps its
    /// programmed tiles, as many as `dest`'s budget admits
    /// ([`DeviceExecutor::rehome`] at the tick [`Self::set_clocks`] last
    /// set), and answers exactly as before; the model's committed
    /// footprint moves with it.
    fn move_residency(&mut self, model: usize, slot: usize, dest: usize) -> usize {
        let budget = self.chips[dest].budget;
        let entry = &mut self.entries[model];
        let residency = &mut entry.residencies[slot];
        residency.executor.rehome(budget, self.tick);
        let from = std::mem::replace(&mut residency.chip, dest);
        self.chips[from].committed_cells -= entry.footprint_cells;
        self.chips[dest].committed_cells += entry.footprint_cells;
        from
    }

    /// Total model evictions since the cluster was created, summed over
    /// the chips.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.chips.iter().map(|c| c.evictions).sum()
    }

    /// Total cross-chip model migrations since the cluster was created
    /// (each counted once, on the chip it moved onto).
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.chips.iter().map(|c| c.migrations_in).sum()
    }

    /// Total recoveries since the cluster was created: models moved off
    /// chips that all failed.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The health of `chip` at dispatch count `dispatched`: failed when
    /// the fault plan kills it at a round below `dispatched` (its
    /// programmed state stays readable), else as the last
    /// drain-boundary scan left it.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    #[must_use]
    pub fn chip_health(&self, chip: ChipId, dispatched: u64) -> ChipHealth {
        let killed = self
            .faults
            .kills
            .iter()
            .any(|k| k.chip == chip.0 && k.round < dispatched);
        if killed {
            ChipHealth::Failed
        } else if self.chips[chip.0].degraded {
            ChipHealth::Degraded
        } else {
            ChipHealth::Healthy
        }
    }

    /// Whether `chip` can execute at dispatch count `dispatched`.
    fn serves(&self, chip: usize, dispatched: u64) -> bool {
        self.chip_health(ChipId(chip), dispatched).serves()
    }

    /// Advances every residency executor's virtual clock to `tick` (the
    /// global dispatch counter). Called at single-threaded drain
    /// boundaries so tile aging is a deterministic function of the
    /// workload, independent of worker count and wall clock. Migrations
    /// and recoveries until the next call move their executors at this
    /// tick, whatever point of the drain they run at.
    fn set_clocks(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
        for entry in &self.entries {
            for r in &entry.residencies {
                r.executor.set_clock(tick);
            }
        }
    }

    /// The drain boundary at dispatch count `n`: advances every clock to
    /// `n`, then lists once, per chip that serves at `n`, the resident
    /// tiles older than the accuracy budget. A healthy chip with any
    /// degrades (one breach), a degraded chip with none heals (one heal),
    /// and with `recalibrate` the oldest [`MAX_RECALS_PER_DRAIN`] are
    /// marked (ties to `(model, layer, tile)`), each re-deriving at
    /// fresh-program state at its next read. A chip failed at `n` is left
    /// alone, so a recal never targets a dead chip. The engine calls this
    /// single-threaded before each pass, so every decision is a function
    /// of the trace, whatever the worker count; without aging only the
    /// clocks move.
    pub(crate) fn begin_pass(&mut self, n: u64, recalibrate: bool) {
        self.set_clocks(n);
        let Some(budget) = self.drift_budget else {
            return;
        };
        for chip in 0..self.chips.len() {
            if !self.serves(chip, n) {
                continue;
            }
            let mut over = Vec::new();
            for (model, entry) in self.entries.iter().enumerate() {
                for r in entry.residencies.iter().filter(|r| r.chip == chip) {
                    for t in r.executor.tile_ages() {
                        if t.age_ticks > budget {
                            let oldest_first = (Reverse(t.age_ticks), model, t.layer, t.tile);
                            over.push((oldest_first, &r.executor));
                        }
                    }
                }
            }
            let registry = &mut self.chips[chip];
            if registry.degraded == over.is_empty() {
                registry.degraded = !over.is_empty();
                if registry.degraded {
                    self.drift.drift_budget_breaches += 1;
                } else {
                    self.drift.drift_heals += 1;
                }
            }
            if !recalibrate {
                continue;
            }
            over.sort_unstable_by_key(|&(key, _)| key);
            over.truncate(MAX_RECALS_PER_DRAIN);
            let marked: usize = over
                .iter()
                .map(|&((.., layer, tile), exec)| exec.mark_recalibrated(layer, tile))
                .sum();
            if marked > 0 {
                self.drift.recalibrations += 1;
                self.drift.recalibrated_tiles += marked as u64;
            }
        }
    }

    /// The drift scan's counters since the cluster was created.
    pub(crate) fn drift_stats(&self) -> DriftStats {
        self.drift
    }

    /// Records one fault-driven batch retry against `chip`.
    pub(crate) fn note_retry(&mut self, chip: ChipId) {
        self.chips[chip.0].retries += 1;
    }

    /// Records one shed request against `chip` (the chip whose failure
    /// forced the shed).
    pub(crate) fn note_shed(&mut self, chip: ChipId) {
        self.chips[chip.0].sheds += 1;
    }

    /// Recovers a model with **no serving residency** at dispatch count
    /// `dispatched` onto the serving chip with the fewest committed cells
    /// (lowest index on ties; unlike occupancy, commitment does not
    /// change with how far execution has got) by moving its richest
    /// residency there ([`Self::move_residency`]) — readable even on a
    /// killed chip, because PCM state is non-volatile. The other
    /// residencies are dropped; the model continues as a single copy
    /// whose outputs are byte-identical to before the failure. Returns
    /// the destination, or `None` when every chip is failed.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this cluster.
    pub(crate) fn recover(&mut self, id: ModelId, dispatched: u64) -> Option<ChipId> {
        let dest = (0..self.chips.len())
            .filter(|&c| self.serves(c, dispatched))
            .min_by_key(|&c| (self.chips[c].committed_cells, c))?;
        let entry = &mut self.entries[id.0];
        // Move the residency with the most compiled state so the
        // recovered chip starts as warm as possible; ties to slot order.
        let slot = (0..entry.residencies.len())
            .max_by_key(|&slot| {
                let cells = entry.residencies[slot].executor.cache_stats().cells;
                (cells, usize::MAX - slot)
            })
            .expect("every entry has at least one residency");
        let kept = entry.residencies.swap_remove(slot);
        for dropped in std::mem::replace(&mut entry.residencies, vec![kept]) {
            self.chips[dropped.chip].committed_cells -= entry.footprint_cells;
        }
        self.move_residency(id.0, 0, dest);
        self.recoveries += 1;
        Some(ChipId(dest))
    }

    /// The summed weight-stationary cell budget across chips.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.chips.iter().map(|c| c.budget).sum()
    }

    /// Summed cache occupancy across all residencies, in cells.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|e| &e.residencies)
            .map(|r| r.executor.cache_stats().cells)
            .sum()
    }

    /// Summed cache occupancy of one chip's models, in cells.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    #[must_use]
    fn chip_occupancy(&self, chip: ChipId) -> usize {
        assert!(chip.0 < self.chips.len(), "chip {chip:?} out of range");
        self.entries
            .iter()
            .flat_map(|e| &e.residencies)
            .filter(|r| r.chip == chip.0)
            .map(|r| r.executor.cache_stats().cells)
            .sum()
    }

    /// Per-model cache statistics, in admission order: hits, misses,
    /// entries and cells summed over every residency, so they reconcile
    /// with [`Self::chip_stats`]; `chip` and the cache budget are the
    /// primary's.
    #[must_use]
    pub fn cache_stats(&self) -> Vec<ModelCacheStats> {
        self.entries
            .iter()
            .map(|e| {
                let mut cache = e.primary().executor.cache_stats();
                for r in &e.residencies[1..] {
                    let copy = r.executor.cache_stats();
                    cache.hits += copy.hits;
                    cache.misses += copy.misses;
                    cache.entries += copy.entries;
                    cache.cells += copy.cells;
                }
                ModelCacheStats {
                    name: e.spec.name.clone(),
                    chip: e.primary().chip,
                    cache,
                }
            })
            .collect()
    }

    /// Per-chip serving statistics at dispatch count `dispatched`, in
    /// chip-index order.
    #[must_use]
    pub fn chip_stats(&self, dispatched: u64) -> Vec<ChipStats> {
        self.chips
            .iter()
            .enumerate()
            .map(|(c, chip)| {
                let (mut hits, mut misses, mut models, mut occupancy) = (0, 0, 0, 0);
                for r in self
                    .entries
                    .iter()
                    .flat_map(|e| &e.residencies)
                    .filter(|r| r.chip == c)
                {
                    let stats = r.executor.cache_stats();
                    hits += stats.hits;
                    misses += stats.misses;
                    occupancy += stats.cells;
                    models += 1;
                }
                ChipStats {
                    chip: c,
                    budget_cells: chip.budget,
                    occupancy_cells: occupancy,
                    models,
                    evictions: chip.evictions,
                    migrations_in: chip.migrations_in,
                    migrations_out: chip.migrations_out,
                    hits,
                    misses,
                    health: self.chip_health(ChipId(c), dispatched),
                    retries: chip.retries,
                    sheds: chip.sheds,
                }
            })
            .collect()
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("chips", &self.chips.len())
            .field("models", &self.entries.len())
            .field("budget", &self.budget())
            .field("occupancy", &self.occupancy())
            .field("evictions", &self.evictions())
            .field("migrations", &self.migrations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::zoo::{lenet5, resnet18};
    use oxbar_nn::{synthetic, Dense, Layer, Network};

    fn lenet_spec(seed: u64) -> ModelSpec {
        let network = lenet5();
        let filters = synthetic::filter_banks(&network, 6, seed);
        ModelSpec {
            name: format!("lenet5_{seed}"),
            network,
            filters,
            lm: None,
        }
    }

    fn make_resident(cluster: &mut Cluster, id: ModelId) {
        let spec = cluster.spec(id);
        let input = synthetic::activations(spec.network.input(), 6, 9);
        let (network, filters) = (spec.network.clone(), spec.filters.clone());
        cluster
            .executor(id)
            .forward(&network, &input, &filters)
            .unwrap();
        cluster.touch(id);
    }

    #[test]
    fn first_fit_packs_then_spills() {
        // One LeNet-5 on 128×128 is ~61k cells: chip 0 (100k) takes one,
        // the second spills to chip 1.
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[100_000, 100_000],
            PlacementPolicy::FirstFit,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        assert_eq!(cluster.chip_of(a), ChipId(0));
        assert_eq!(cluster.chip_of(b), ChipId(1));
    }

    #[test]
    fn least_loaded_spreads_models() {
        // `Replicated(1)` places like `LeastLoaded`.
        for placement in [PlacementPolicy::LeastLoaded, PlacementPolicy::Replicated(1)] {
            let mut cluster = Cluster::new(
                SimConfig::ideal(128, 128),
                &[1_000_000, 1_000_000],
                placement,
            );
            let a = cluster.admit(lenet_spec(1)).unwrap();
            let b = cluster.admit(lenet_spec(2)).unwrap();
            assert_eq!(cluster.chip_of(a), ChipId(0), "{placement:?}");
            assert_eq!(
                cluster.chip_of(b),
                ChipId(1),
                "{placement:?}: second model balances"
            );
            assert_eq!(cluster.residencies(b), [ChipId(1)], "{placement:?}");
        }
    }

    #[test]
    fn strict_admission_reports_capacity() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[10_000, 20_000],
            PlacementPolicy::FirstFit,
        );
        let err = cluster.admit_strict(lenet_spec(1)).unwrap_err();
        match &err {
            AdmitError::Capacity {
                footprint_cells,
                replicas,
                chip_budgets,
                committed_cells,
            } => {
                assert!(*footprint_cells > 20_000);
                assert_eq!(*replicas, 1);
                assert_eq!(chip_budgets, &[10_000, 20_000]);
                assert_eq!(committed_cells, &[0, 0]);
            }
            other => panic!("expected Capacity, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(
            shown.contains("cells"),
            "Display names the footprint: {shown}"
        );
        // Permissive admission still lands it somewhere.
        assert!(cluster.admit(lenet_spec(1)).is_ok());
        assert_eq!(cluster.len(), 1);
    }

    #[test]
    fn over_budget_chip_migrates_to_a_sibling_bit_exactly() {
        // Chip 0 can hold one resident LeNet, chip 1 is empty and roomy.
        // Forcing both models onto chip 0 and enforcing must MIGRATE the
        // LRU model to chip 1 (not evict it), preserving its outputs.
        let mut cluster = Cluster::new(
            SimConfig::noisy(128, 128).with_threads(1),
            &[100_000, 200_000],
            PlacementPolicy::FirstFit,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        // FirstFit put b on chip 1; drag it back to chip 0 to create the
        // hot spot deliberately.
        cluster.migrate(b.0, 0);
        assert_eq!(cluster.chip_of(b), ChipId(0));
        let spec_a = cluster.spec(a);
        let input = synthetic::activations(spec_a.network.input(), 6, 4);
        let (net_a, filt_a) = (spec_a.network.clone(), spec_a.filters.clone());
        let before = cluster
            .executor(a)
            .forward(&net_a, &input, &filt_a)
            .unwrap();
        make_resident(&mut cluster, a);
        make_resident(&mut cluster, b);
        // `make_resident` re-ran `a`'s forward; `a` is LRU after `b`.
        cluster.touch(b);
        let evicted = cluster.enforce_budget(0);
        assert_eq!(evicted, 0, "a sibling had room: migration, not eviction");
        assert_eq!(cluster.migrations(), 2, "setup drag + enforcement");
        assert_eq!(cluster.chip_of(a), ChipId(1), "LRU model moved");
        assert!(cluster.chip_occupancy(ChipId(0)) <= 100_000);
        assert!(
            cluster.executor(a).cache_stats().cells > 0,
            "migration keeps state resident"
        );
        let after = cluster
            .executor(a)
            .forward(&net_a, &input, &filt_a)
            .unwrap();
        assert_eq!(after, before, "migration must not change outputs");
        let stats = cluster.chip_stats(0);
        assert_eq!(stats[0].migrations_in, 1, "the setup drag onto chip 0");
        assert_eq!(stats[1].migrations_in, 1, "the enforcement move of `a`");
        assert_eq!(stats[0].evictions, 0);
    }

    #[test]
    fn replicated_placement_spreads_copies_across_distinct_chips() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[100_000, 100_000, 100_000],
            PlacementPolicy::Replicated(2),
        );
        let a = cluster.admit_strict(lenet_spec(1)).unwrap();
        let homes = cluster.residencies(a);
        assert_eq!(homes, vec![ChipId(0), ChipId(1)], "two distinct chips");
        assert_eq!(cluster.chip_of(a), ChipId(0), "slot 0 is primary");
        // Both replicas share the admission seed → identical outputs.
        let spec = cluster.spec(a);
        let input = synthetic::activations(spec.network.input(), 6, 5);
        let (net, filt) = (spec.network.clone(), spec.filters.clone());
        let primary = cluster
            .executor_on(a, ChipId(0))
            .unwrap()
            .forward(&net, &input, &filt)
            .unwrap();
        let replica = cluster
            .executor_on(a, ChipId(1))
            .unwrap()
            .forward(&net, &input, &filt)
            .unwrap();
        assert_eq!(replica, primary, "replicas answer byte-identically");
    }

    #[test]
    fn prewarm_programs_every_replica() {
        let cluster_of = || {
            let mut cluster = Cluster::new(
                SimConfig::noisy(128, 128).with_threads(1),
                &[100_000, 100_000],
                PlacementPolicy::Replicated(2),
            );
            let a = cluster.admit_strict(lenet_spec(1)).unwrap();
            (cluster, a)
        };
        let (cluster, a) = cluster_of();
        let compiled = cluster.prewarm(a);
        let cache = |chip| cluster.executor_on(a, ChipId(chip)).unwrap().cache_stats();
        assert!(cache(0).cells > 0, "the primary holds the model");
        assert_eq!(cache(1).cells, cache(0).cells, "so does the replica");
        assert_eq!(compiled, cache(0).entries + cache(1).entries);
        assert_eq!(cluster.prewarmed_tiles(), compiled as u64);
        assert_eq!(cluster.prewarm(a), 0, "a warm model programs nothing");
        assert_eq!(cluster.prewarmed_tiles(), compiled as u64);
        // Warming first only moves the programming: the first batch on
        // either copy answers as on a cold cluster.
        let (cold, _) = cluster_of();
        let spec = cluster.spec(a);
        let input = synthetic::activations(spec.network.input(), 6, 3);
        for chip in [ChipId(0), ChipId(1)] {
            let run = |c: &Cluster| {
                c.executor_on(a, chip)
                    .unwrap()
                    .forward(&spec.network, &input, &spec.filters)
                    .unwrap()
                    .output
            };
            assert_eq!(run(&cluster), run(&cold), "{chip:?}");
        }
    }

    #[test]
    fn prewarm_misses_each_tile_once_and_hits_nothing() {
        let config = SimConfig::noisy(128, 128).with_threads(1);
        let spec = lenet_spec(1);
        let lone = DeviceExecutor::new(config.clone());
        let input = synthetic::activations(spec.network.input(), 6, 3);
        lone.forward(&spec.network, &input, &spec.filters).unwrap();
        let tiles = lone.cache_stats().misses;
        let footprint = lone.model_footprint_cells(&spec.network);
        // Chips that hold the model are warmed, one miss per tile; chips
        // that hold half of it are skipped, so nothing is programmed.
        for (budget, warmed) in [(100_000, tiles), (footprint / 2, 0)] {
            let mut cluster = Cluster::new(
                config.clone(),
                &[budget, budget],
                PlacementPolicy::Replicated(2),
            );
            let a = cluster.admit(lenet_spec(1)).unwrap();
            assert_eq!(cluster.prewarm(a), 2 * warmed as usize, "budget {budget}");
            assert_eq!(cluster.prewarmed_tiles(), 2 * warmed, "budget {budget}");
            for chip in [ChipId(0), ChipId(1)] {
                let cache = cluster.executor_on(a, chip).unwrap().cache_stats();
                assert_eq!(
                    (cache.hits, cache.misses),
                    (0, warmed),
                    "budget {budget}, {chip:?}: prewarm adds no hit"
                );
            }
        }
    }

    #[test]
    fn prewarm_skips_a_model_its_chip_has_no_room_left_for() {
        // One 100k chip holds one resident LeNet-5 (~61k cells), not two.
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128).with_threads(1),
            &[100_000],
            PlacementPolicy::FirstFit,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        assert!(cluster.prewarm(a) > 0);
        assert_eq!(cluster.prewarm(b), 0, "a's tiles leave no room for b");
        assert_eq!(cluster.executor(b).cache_stats().misses, 0);
        assert!(cluster.occupancy() <= cluster.budget());
        assert_eq!(cluster.enforce_budget(0), 0, "nothing to evict");
    }

    #[test]
    fn strict_replicated_admission_demands_k_chips_with_room() {
        // Only one chip can hold a LeNet copy: Replicated(2) must refuse.
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[100_000, 10_000],
            PlacementPolicy::Replicated(2),
        );
        let err = cluster.admit_strict(lenet_spec(1)).unwrap_err();
        match &err {
            AdmitError::Capacity { replicas, .. } => assert_eq!(*replicas, 2),
            other => panic!("expected Capacity, got {other:?}"),
        }
        // Permissive admission clamps to the chips available.
        let a = cluster.admit(lenet_spec(1)).unwrap();
        assert_eq!(cluster.residencies(a).len(), 2);
    }

    #[test]
    fn a_chip_is_failed_exactly_past_its_planned_kill() {
        let cluster = Cluster::new(
            SimConfig::ideal(64, 64),
            &[100_000, 100_000],
            PlacementPolicy::FirstFit,
        )
        .with_faults(FaultPlan::new().kill_chip(3, 1).kill_chip(5, 7));
        let health = |dispatched| {
            cluster
                .chip_stats(dispatched)
                .iter()
                .map(|c| c.health)
                .collect::<Vec<_>>()
        };
        let (ok, dead) = (ChipHealth::Healthy, ChipHealth::Failed);
        assert_eq!(health(3), [ok, ok], "the kill lands before round 3");
        assert_eq!(health(4), [ok, dead], "round 3 runs without chip 1");
        assert_eq!(health(9), [ok, dead], "a kill of chip 7 names no chip");
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::new().kill_chip(7, 3).kill_chip(9, 1);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn killed_chip_fails_over_to_the_surviving_replica() {
        let mut cluster = Cluster::new(
            SimConfig::noisy(128, 128).with_threads(1),
            &[100_000, 100_000],
            PlacementPolicy::Replicated(2),
        )
        .with_faults(FaultPlan::new().kill_chip(0, 0));
        let a = cluster.admit_strict(lenet_spec(1)).unwrap();
        let spec = cluster.spec(a);
        let input = synthetic::activations(spec.network.input(), 6, 7);
        let (net, filt) = (spec.network.clone(), spec.filters.clone());
        let before = cluster
            .executor_on(a, ChipId(0))
            .unwrap()
            .forward(&net, &input, &filt)
            .unwrap();

        assert_eq!(cluster.chip_health(ChipId(0), 1), ChipHealth::Failed);
        let after = cluster
            .executor_on(a, ChipId(1))
            .unwrap()
            .forward(&net, &input, &filt)
            .unwrap();
        assert_eq!(after, before, "failover is invisible in outputs");
    }

    #[test]
    fn unreplicated_model_recovers_by_a_move() {
        let mut cluster = Cluster::new(
            SimConfig::noisy(128, 128).with_threads(1),
            &[100_000, 100_000],
            PlacementPolicy::FirstFit,
        )
        .with_faults(FaultPlan::new().kill_chip(0, 0));
        let a = cluster.admit(lenet_spec(1)).unwrap();
        make_resident(&mut cluster, a);
        let spec = cluster.spec(a);
        let input = synthetic::activations(spec.network.input(), 6, 8);
        let (net, filt) = (spec.network.clone(), spec.filters.clone());
        let before = cluster.executor(a).forward(&net, &input, &filt).unwrap();

        assert!(!cluster.chip_health(cluster.chip_of(a), 1).serves());
        let dest = cluster.recover(a, 1).expect("a healthy chip remains");
        assert_eq!(dest, ChipId(1));
        assert_eq!(cluster.chip_of(a), ChipId(1));
        assert_eq!(cluster.recoveries(), 1);
        assert!(
            cluster.executor(a).cache_stats().cells > 0,
            "recovery keeps the warm tile state"
        );
        let after = cluster.executor(a).forward(&net, &input, &filt).unwrap();
        assert_eq!(after, before, "recovery is byte-exact");
        // Committed bookkeeping followed the model off the dead chip.
        assert_eq!(cluster.chips[0].committed_cells, 0);
        assert_eq!(
            cluster.chips[1].committed_cells,
            cluster.entries[a.0].footprint_cells
        );
    }

    #[test]
    fn degrade_and_heal_move_health_but_never_revive_a_failed_chip() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[100_000, 100_000],
            PlacementPolicy::Replicated(2),
        )
        .with_faults(FaultPlan::new().kill_chip(0, 1));
        cluster.admit_strict(lenet_spec(1)).unwrap();
        cluster.chips[0].degraded = true;
        assert_eq!(cluster.chip_health(ChipId(0), 1), ChipHealth::Degraded);
        let stats = cluster.chip_stats(0);
        assert_eq!(stats[0].health, ChipHealth::Degraded);
        assert_eq!(stats[1].health, ChipHealth::Healthy);
        cluster.chips[0].degraded = false;
        assert_eq!(cluster.chip_health(ChipId(0), 1), ChipHealth::Healthy);
        cluster.chips[1].degraded = true;
        assert_eq!(cluster.chip_health(ChipId(1), 1), ChipHealth::Failed);
        cluster.chips[1].degraded = false;
        assert_eq!(cluster.chip_health(ChipId(1), 1), ChipHealth::Failed);
    }

    /// The scenario runner's aging device: noisy 32×16 tiles with a
    /// 4-tick accuracy budget.
    fn aging_device() -> SimConfig {
        SimConfig::noisy(32, 16)
            .with_threads(1)
            .with_drift_tick(oxbar_units::Time::from_seconds(1e4))
    }

    /// A dense stack through the given widths; on 32×16 tiles a
    /// `rows → cols` layer takes `⌈rows/32⌉·⌈cols/16⌉` tiles.
    fn dense_spec(widths: &[usize], seed: u64) -> ModelSpec {
        let mut net = Network::new(format!("dense_{seed}"), TensorShape::flat(widths[0]));
        for (l, pair) in widths.windows(2).enumerate() {
            net.push(Layer::Dense(Dense::new(format!("fc{l}"), pair[0], pair[1])));
        }
        crate::catalog::spec_from_network(net, seed)
    }

    /// `(model, layer, tile, age)` of every resident tile on `chip`.
    fn ages(cluster: &Cluster, chip: usize) -> Vec<(usize, usize, usize, u64)> {
        (0..cluster.len())
            .filter_map(|m| Some((m, cluster.executor_on(ModelId(m), ChipId(chip))?)))
            .flat_map(|(m, exec)| {
                let ages = exec.tile_ages().into_iter();
                ages.map(move |t| (m, t.layer, t.tile, t.age_ticks))
            })
            .collect()
    }

    #[test]
    fn the_boundary_scan_marks_the_sixteen_oldest_tiles_in_model_layer_tile_order() {
        let mut cluster = Cluster::new(aging_device(), &[1_000_000], PlacementPolicy::FirstFit);
        let budget = cluster.drift_budget.expect("the aging device has a budget");
        let young = cluster.admit(dense_spec(&[64, 64, 64], 1)).unwrap(); // 8 + 8 tiles
        let old = cluster.admit(dense_spec(&[32, 48], 2)).unwrap(); // 3 tiles
        let tied = cluster.admit(dense_spec(&[64, 32], 3)).unwrap(); // 4 tiles
        make_resident(&mut cluster, old);
        cluster.begin_pass(1, true);
        assert!(
            ages(&cluster, 0).iter().all(|&(.., age)| age == 1),
            "none past"
        );
        make_resident(&mut cluster, young);
        make_resident(&mut cluster, tied);
        let n = budget + 2;
        cluster.begin_pass(n, true);
        // 23 tiles are past the budget: the old model's 3 go first, then
        // 13 of the 20 tied ones — model 0 before model 2, layer 0
        // before layer 1, tile by tile.
        let marked: Vec<(usize, usize, usize)> = ages(&cluster, 0)
            .into_iter()
            .filter(|&(.., age)| age == 0)
            .map(|(m, layer, tile, _)| (m, layer, tile))
            .collect();
        let want: Vec<(usize, usize, usize)> = (0..8)
            .map(|t| (young.0, 0, t))
            .chain((0..5).map(|t| (young.0, 1, t)))
            .chain((0..3).map(|t| (old.0, 0, t)))
            .collect();
        assert_eq!(marked, want);
        assert_eq!(cluster.chip_health(ChipId(0), n), ChipHealth::Degraded);
        let one_pass = DriftStats {
            recalibrations: 1,
            recalibrated_tiles: 16,
            drift_budget_breaches: 1,
            drift_heals: 0,
        };
        assert_eq!(cluster.drift_stats(), one_pass);
    }

    #[test]
    fn without_recalibration_the_boundary_scan_degrades_and_marks_nothing() {
        let mut cluster = Cluster::new(aging_device(), &[1_000_000], PlacementPolicy::FirstFit);
        let n = cluster.drift_budget.expect("the aging device has a budget") + 1;
        let a = cluster.admit(dense_spec(&[64, 64], 1)).unwrap();
        make_resident(&mut cluster, a);
        cluster.begin_pass(n, false);
        assert_eq!(cluster.chip_health(ChipId(0), n), ChipHealth::Degraded);
        assert!(
            ages(&cluster, 0).iter().all(|&(.., age)| age == n),
            "none marked"
        );
        let breach = DriftStats {
            drift_budget_breaches: 1,
            ..DriftStats::default()
        };
        assert_eq!(cluster.drift_stats(), breach);
    }

    #[test]
    fn a_chip_failed_at_the_boundary_is_neither_degraded_healed_nor_marked() {
        // Chip 0 has no room, so the model lands on chip 1; chips 1 and
        // 2 are failed from dispatch 1 on.
        let mut cluster = Cluster::new(
            aging_device(),
            &[0, 1_000_000, 1_000_000],
            PlacementPolicy::FirstFit,
        )
        .with_faults(FaultPlan::new().kill_chip(0, 1).kill_chip(0, 2));
        let n = cluster.drift_budget.expect("the aging device has a budget") + 1;
        let a = cluster.admit(dense_spec(&[64, 64], 1)).unwrap();
        assert_eq!(cluster.chip_of(a), ChipId(1));
        make_resident(&mut cluster, a);
        cluster.chips[2].degraded = true;
        cluster.begin_pass(n, true);
        assert!(
            !cluster.chips[1].degraded,
            "past the budget, yet not degraded"
        );
        assert!(
            cluster.chips[2].degraded,
            "nothing past the budget, yet not healed"
        );
        assert!(
            ages(&cluster, 1).iter().all(|&(.., age)| age == n),
            "none marked"
        );
        assert_eq!(cluster.drift_stats(), DriftStats::default());
    }

    #[test]
    fn a_degraded_chip_heals_at_the_first_boundary_with_no_tile_past_the_budget() {
        let mut cluster = Cluster::new(aging_device(), &[1_000_000], PlacementPolicy::FirstFit);
        let budget = cluster.drift_budget.expect("the aging device has a budget");
        assert!(budget >= 2, "a marked tile stays in budget for two ticks");
        let a = cluster.admit(dense_spec(&[64, 64, 64, 32], 1)).unwrap(); // 20 tiles
        make_resident(&mut cluster, a);
        let health = |cluster: &Cluster, n| cluster.chip_health(ChipId(0), n);
        // 16 tiles marked, 4 still past the budget.
        cluster.begin_pass(budget + 1, true);
        assert_eq!(health(&cluster, budget + 1), ChipHealth::Degraded);
        // The other 4 are still past the budget: the chip stays degraded
        // while they are marked.
        cluster.begin_pass(budget + 2, true);
        assert_eq!(health(&cluster, budget + 2), ChipHealth::Degraded);
        // Every tile is 1 or 2 ticks old.
        cluster.begin_pass(budget + 3, true);
        assert_eq!(health(&cluster, budget + 3), ChipHealth::Healthy);
        let healed = DriftStats {
            recalibrations: 2,
            recalibrated_tiles: 20,
            drift_budget_breaches: 1,
            drift_heals: 1,
        };
        assert_eq!(cluster.drift_stats(), healed);
    }

    #[test]
    fn a_move_starts_at_the_tick_set_clocks_set_not_the_lru_stamp() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128).with_threads(1),
            &[100_000, 100_000],
            PlacementPolicy::FirstFit,
        )
        .with_faults(FaultPlan::new().kill_chip(0, 0));
        let a = cluster.admit(lenet_spec(1)).unwrap();
        cluster.set_clocks(5);
        for _ in 0..3 {
            make_resident(&mut cluster, a);
        }
        assert_eq!(cluster.recover(a, 1), Some(ChipId(1)));
        assert_eq!(cluster.executor(a).clock(), 5);
    }

    #[test]
    fn admission_assigns_sequential_ids_and_distinct_seeds() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(64, 64),
            &[1_000_000],
            PlacementPolicy::FirstFit,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        assert_eq!((a, b), (ModelId(0), ModelId(1)));
        assert_ne!(
            cluster.executor(a).config().seed,
            cluster.executor(b).config().seed,
            "each model draws its own programming-noise stream"
        );
    }

    #[test]
    fn residual_and_underfiltered_models_are_refused() {
        let mut cluster = Cluster::new(
            SimConfig::ideal(64, 64),
            &[1_000_000],
            PlacementPolicy::FirstFit,
        );
        let residual = ModelSpec {
            name: "resnet18".into(),
            filters: synthetic::filter_banks(&resnet18(), 6, 3),
            network: resnet18(),
            lm: None,
        };
        assert_eq!(
            cluster.admit(residual),
            Err(AdmitError::Residual("conv2_1_add".into())),
            "the refusal names the first residual layer"
        );
        let mut short = lenet_spec(4);
        short.filters.pop();
        assert!(matches!(
            cluster.admit(short),
            Err(AdmitError::FilterCount {
                expected: 5,
                got: 4
            })
        ));
        assert!(cluster.is_empty());
    }

    #[test]
    fn single_chip_cluster_evicts_lru_first() {
        // One LeNet-5 on a 128×128 array compiles to ~61k cells, so a
        // 100k chip holds one resident model but not two.
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[100_000],
            PlacementPolicy::FirstFit,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        make_resident(&mut cluster, a);
        make_resident(&mut cluster, b);
        assert!(cluster.occupancy() > cluster.budget());
        let evicted = cluster.enforce_budget(0);
        assert_eq!(evicted, 1, "no sibling: eviction, not migration");
        assert_eq!(cluster.evictions(), 1);
        assert_eq!(cluster.migrations(), 0);
        assert!(cluster.occupancy() <= cluster.budget());
        let stats = cluster.cache_stats();
        assert_eq!(stats[a.0].cache.cells, 0, "model A was least recently used");
        assert!(stats[b.0].cache.cells > 0, "model B survives");
        assert_eq!(stats[a.0].chip, 0);
    }
}
