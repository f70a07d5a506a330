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
//!   victim to any sibling chip with room; the model moves via
//!   [`oxbar_sim::DeviceExecutor::snapshot`] / `restore`, which rebuilds
//!   its programmed tile state bit-exactly, so migration changes *where*
//!   a model serves from, never *what* it answers.
//!
//! A 1-chip cluster is the classic single-registry engine — same
//! outputs, same eviction sequence (`tests/cluster_equivalence.rs` pins
//! it).
//!
//! Chip failure has one rule, [`Cluster::chip_health`]: every question
//! about a chip's health passes the dispatch count it is asked at.

use crate::registry::{AdmitError, ModelCacheStats, ModelSpec};
use crate::request::ModelId;
use oxbar_nn::{Layer, TensorShape};
use oxbar_sim::{DeviceExecutor, FaultPlan, SimConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Handle to one chip of a [`Cluster`], in chip-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChipId(pub usize);

/// Operational health of one chip at a dispatch count.
///
/// `Healthy ⇄ Degraded` (the aging monitor's accuracy-budget breach and
/// post-recalibration heal) and `{Healthy, Degraded} → Failed` (a
/// planned chip kill the dispatch count has passed; terminal within a
/// run). `Failed` chips never serve; `Degraded` chips serve but the
/// scheduler prefers healthy replicas when routing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChipHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// Drift-degraded: a resident tile is past the accuracy budget. Still
    /// serving, deprioritized by replica routing.
    Degraded,
    /// Control plane down: the chip cannot execute. Its non-volatile
    /// programmed state remains snapshot-readable for recovery.
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
    /// Set by the aging monitor while a resident tile is past the
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
/// independent of the cluster layout and a 1-chip cluster reproduces the
/// single-registry engine byte for byte.
pub struct Cluster {
    base: SimConfig,
    placement: PlacementPolicy,
    chips: Vec<ChipRegistry>,
    entries: Vec<ModelEntry>,
    /// The chip-kill schedule every health question reads.
    faults: FaultPlan,
    /// LRU use stamp: +1 per [`Self::touch`].
    lru: u64,
    /// The virtual tick [`Self::set_clocks`] last set; a restored
    /// executor starts there.
    tick: u64,
    recoveries: u64,
    /// Wall-clock milliseconds spent in snapshot/restore recoveries
    /// (observational only — never feeds back into scheduling).
    recovery_ms: f64,
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
    pub fn new(base: SimConfig, chip_budgets: &[usize], placement: PlacementPolicy) -> Self {
        assert!(!chip_budgets.is_empty(), "a cluster has at least one chip");
        Self {
            base,
            placement,
            chips: chip_budgets.iter().map(|&b| ChipRegistry::new(b)).collect(),
            entries: Vec::new(),
            faults: FaultPlan::new(),
            lru: 0,
            tick: 0,
            recoveries: 0,
            recovery_ms: 0.0,
        }
    }

    /// Kills chips on `plan`'s schedule (see [`Self::chip_health`]).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Validates a spec (residual layers, filter coverage) without
    /// placing it.
    fn validate(spec: &ModelSpec) -> Result<(), AdmitError> {
        if let Some(add) = spec.network.layers().iter().find_map(|l| match l {
            Layer::Add(a) => Some(a.name.clone()),
            _ => None,
        }) {
            return Err(AdmitError::Residual(add));
        }
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
    /// room for fewer copies than the policy demands.
    fn place(&self, footprint: usize) -> Option<Vec<usize>> {
        let fits = |c: &&(usize, &ChipRegistry)| c.1.committed_cells + footprint <= c.1.budget;
        let indexed: Vec<(usize, &ChipRegistry)> = self.chips.iter().enumerate().collect();
        match self.placement {
            PlacementPolicy::FirstFit => indexed.iter().find(fits).map(|(i, _)| vec![*i]),
            PlacementPolicy::LeastLoaded => indexed
                .iter()
                .filter(fits)
                .min_by_key(|(i, c)| (c.committed_cells, *i))
                .map(|(i, _)| vec![*i]),
            PlacementPolicy::Replicated(_) => {
                let mut order: Vec<usize> = indexed.iter().filter(fits).map(|(i, _)| *i).collect();
                order.sort_by_key(|&i| (self.chips[i].committed_cells, i));
                order.truncate(self.replica_count());
                (order.len() == self.replica_count()).then_some(order)
            }
        }
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
    /// index on ties) and the chip's LRU eviction absorbs the pressure —
    /// matching the single-registry behavior where over-budget admission
    /// thrashes rather than fails. Use [`Self::admit_strict`] to refuse
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError`] if the network is residual or the filter
    /// banks do not cover its conv-like layers.
    pub fn admit(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
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
    pub fn admit_strict(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
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

    /// The weight-stationary cell budget of `chip`.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    #[must_use]
    pub fn chip_budget(&self, chip: ChipId) -> usize {
        self.chips[chip.0].budget
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
    pub fn touch(&mut self, id: ModelId) {
        self.lru += 1;
        self.entries[id.0].last_use = self.lru;
    }

    /// The model's full weight-stationary footprint in crossbar cells.
    #[must_use]
    pub fn footprint_cells(&self, id: ModelId) -> usize {
        self.entries[id.0].footprint_cells
    }

    /// The crossbar cells of `id`'s primary residency currently in its
    /// tile cache.
    #[must_use]
    pub fn resident_cells(&self, id: ModelId) -> usize {
        self.entries[id.0].primary().executor.cache_stats().cells
    }

    /// Eagerly programs + compiles the primary residency's missing tiles
    /// ([`DeviceExecutor::prewarm`]), returning how many were compiled.
    /// Never evicts: callers budget-check against the model's *chip*
    /// first, so prewarming cannot change any chip's eviction sequence.
    pub fn prewarm(&self, id: ModelId) -> usize {
        let entry = &self.entries[id.0];
        let executor = &entry.primary().executor;
        let compiled = executor.prewarm(&entry.spec.network, &entry.spec.filters);
        if compiled > 0 {
            // One discarded zero-input forward warms the executor's
            // arena pool and pages the freshly compiled gain matrices
            // in, so the model's first real batch runs at steady-state
            // speed. Executions are pure functions of their inputs —
            // a discarded one cannot change any later result.
            let shape = entry.spec.network.input();
            let zeros = oxbar_nn::reference::Tensor3::new(shape, vec![0; shape.elements()]);
            let _ = executor.forward(&entry.spec.network, &zeros, &entry.spec.filters);
        }
        compiled
    }

    /// Enforces every chip's cell budget at dispatch count `dispatched`,
    /// returning how many models were evicted. The pass repeatedly takes
    /// the lowest-indexed over-budget chip, selects its
    /// least-recently-used resident model (ties to the lowest admission
    /// index), and first offers it to a sibling chip with occupancy room
    /// — **migration**, via a bit-exact executor snapshot — falling back
    /// to eviction (tile cache cleared) when no sibling can take it. A model migrates at most once per pass: a hot
    /// potato that lands on another over-budget chip is evicted there
    /// rather than bounced again, so the pass terminates with *every*
    /// chip within budget. On a 1-chip cluster there is never a migration
    /// target, so the eviction sequence is exactly the single-registry
    /// one. Chips failed at `dispatched` are skipped entirely: they serve
    /// nothing, and their non-volatile state is left intact for recovery.
    pub fn enforce_budget(&mut self, dispatched: u64) -> usize {
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

    /// Moves one residency to another chip by snapshot/restore of its
    /// programmed tile state — bit-exact, so outputs never change.
    fn migrate_residency(&mut self, victim: usize, slot: usize, dest: usize) {
        let from = self.entries[victim].residencies[slot].chip;
        let mut snap = self.entries[victim].residencies[slot].executor.snapshot();
        snap.cache_budget = self.chips[dest].budget;
        self.entries[victim].residencies[slot].executor =
            DeviceExecutor::restore_at(&snap, self.tick);
        self.entries[victim].residencies[slot].chip = dest;
        let footprint = self.entries[victim].footprint_cells;
        self.chips[from].committed_cells -= footprint;
        self.chips[dest].committed_cells += footprint;
        self.chips[from].migrations_out += 1;
        self.chips[dest].migrations_in += 1;
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

    /// Total snapshot/restore recoveries since the cluster was created.
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Wall-clock milliseconds spent in snapshot/restore recoveries
    /// (observational; never feeds back into scheduling decisions).
    #[must_use]
    pub fn recovery_ms(&self) -> f64 {
        self.recovery_ms
    }

    /// The health of `chip` at dispatch count `dispatched`: failed when
    /// the fault plan kills it at a round below `dispatched` (its
    /// programmed state stays snapshot-readable), else as the aging
    /// monitor last left it.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    #[must_use]
    pub fn chip_health(&self, chip: ChipId, dispatched: u64) -> ChipHealth {
        let killed = self
            .faults
            .events()
            .iter()
            .any(|e| e.chip() == chip.0 && e.round() < dispatched);
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

    /// Marks `chip` drift-degraded (the aging monitor found a resident
    /// tile past the accuracy budget): it keeps serving, but replica
    /// routing prefers healthy chips. A failed chip still reports failed.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    pub fn degrade_chip(&mut self, chip: ChipId) {
        self.chips[chip.0].degraded = true;
    }

    /// Heals a drift-degraded chip back to [`ChipHealth::Healthy`] — the
    /// scheduler calls this after recalibration brings all of the chip's
    /// resident tiles back under the accuracy budget. A failed chip still
    /// reports failed.
    ///
    /// # Panics
    ///
    /// Panics if the chip index is out of range.
    pub fn heal_chip(&mut self, chip: ChipId) {
        self.chips[chip.0].degraded = false;
    }

    /// Advances every residency executor's virtual clock to `tick` (the
    /// global dispatch counter). Called at single-threaded drain
    /// boundaries so tile aging is a deterministic function of the
    /// workload, independent of worker count and wall clock. Migrations
    /// and recoveries until the next call restore their executors at
    /// this tick, whatever point of the drain they run at.
    pub fn set_clocks(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
        for entry in &self.entries {
            for r in &entry.residencies {
                r.executor.set_clock(tick);
            }
        }
    }

    /// Records one fault-driven batch retry against `chip`.
    pub fn note_retry(&mut self, chip: ChipId) {
        self.chips[chip.0].retries += 1;
    }

    /// Records one shed request against `chip` (the chip whose failure
    /// forced the shed).
    pub fn note_shed(&mut self, chip: ChipId) {
        self.chips[chip.0].sheds += 1;
    }

    /// Recovers a model with **no serving residency** at dispatch count
    /// `dispatched` onto the serving chip with the fewest committed cells
    /// (lowest index on ties; unlike occupancy, commitment does not
    /// change with how far execution has got) by snapshot/restore of its
    /// richest residency — readable even on a killed chip, because PCM
    /// state is non-volatile. All old residencies are dropped; the model
    /// continues as a single copy whose outputs are byte-identical to
    /// before the failure. Returns the destination, or `None` when every
    /// chip is failed.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this cluster.
    pub fn recover(&mut self, id: ModelId, dispatched: u64) -> Option<ChipId> {
        let dest = (0..self.chips.len())
            .filter(|&c| self.serves(c, dispatched))
            .min_by_key(|&c| (self.chips[c].committed_cells, c))?;
        let started = std::time::Instant::now();
        let entry = &self.entries[id.0];
        // Snapshot the residency with the most compiled state so the
        // recovered chip starts as warm as possible; ties to slot order.
        let source = entry
            .residencies
            .iter()
            .enumerate()
            .max_by_key(|(slot, r)| (r.executor.cache_stats().cells, usize::MAX - slot))
            .map(|(_, r)| r)
            .expect("every entry has at least one residency");
        let mut snap = source.executor.snapshot();
        snap.cache_budget = self.chips[dest].budget;
        let restored = DeviceExecutor::restore_at(&snap, self.tick);
        let footprint = self.entries[id.0].footprint_cells;
        for r in &self.entries[id.0].residencies {
            self.chips[r.chip].committed_cells -= footprint;
        }
        self.chips[dest].committed_cells += footprint;
        self.entries[id.0].residencies = vec![Residency {
            chip: dest,
            executor: restored,
        }];
        self.recoveries += 1;
        self.recovery_ms += started.elapsed().as_secs_f64() * 1e3;
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
    pub fn chip_occupancy(&self, chip: ChipId) -> usize {
        assert!(chip.0 < self.chips.len(), "chip {chip:?} out of range");
        self.entries
            .iter()
            .flat_map(|e| &e.residencies)
            .filter(|r| r.chip == chip.0)
            .map(|r| r.executor.cache_stats().cells)
            .sum()
    }

    /// Per-model cache statistics (primary residency), in admission
    /// order.
    #[must_use]
    pub fn cache_stats(&self) -> Vec<ModelCacheStats> {
        self.entries
            .iter()
            .map(|e| ModelCacheStats {
                name: e.spec.name.clone(),
                chip: e.primary().chip,
                cache: e.primary().executor.cache_stats(),
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
    use oxbar_nn::synthetic;
    use oxbar_nn::zoo::{lenet5, resnet18};

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
        let mut cluster = Cluster::new(
            SimConfig::ideal(128, 128),
            &[1_000_000, 1_000_000],
            PlacementPolicy::LeastLoaded,
        );
        let a = cluster.admit(lenet_spec(1)).unwrap();
        let b = cluster.admit(lenet_spec(2)).unwrap();
        assert_eq!(cluster.chip_of(a), ChipId(0));
        assert_eq!(cluster.chip_of(b), ChipId(1), "second model balances");
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
            cluster.resident_cells(a) > 0,
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
    fn unreplicated_model_recovers_by_snapshot_restore() {
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
            cluster.resident_cells(a) > 0,
            "recovery restores the warm tile state"
        );
        let after = cluster.executor(a).forward(&net, &input, &filt).unwrap();
        assert_eq!(after, before, "recovery is byte-exact");
        // Committed bookkeeping followed the model off the dead chip.
        assert_eq!(cluster.chips[0].committed_cells, 0);
        assert_eq!(cluster.chips[1].committed_cells, cluster.footprint_cells(a));
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
        cluster.degrade_chip(ChipId(0));
        assert_eq!(cluster.chip_health(ChipId(0), 1), ChipHealth::Degraded);
        let stats = cluster.chip_stats(0);
        assert_eq!(stats[0].health, ChipHealth::Degraded);
        assert_eq!(stats[1].health, ChipHealth::Healthy);
        cluster.heal_chip(ChipId(0));
        assert_eq!(cluster.chip_health(ChipId(0), 1), ChipHealth::Healthy);
        cluster.degrade_chip(ChipId(1));
        assert_eq!(cluster.chip_health(ChipId(1), 1), ChipHealth::Failed);
        cluster.heal_chip(ChipId(1));
        assert_eq!(cluster.chip_health(ChipId(1), 1), ChipHealth::Failed);
    }

    #[test]
    fn a_restore_starts_at_the_tick_set_clocks_set_not_the_lru_stamp() {
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
        assert!(matches!(
            cluster.admit(residual),
            Err(AdmitError::Residual(_))
        ));
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
