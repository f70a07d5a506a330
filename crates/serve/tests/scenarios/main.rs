//! Fault, drift and token-serving scenarios of the serving engine, run
//! through one seeded runner and one invariant checker ([`runner`]).
//!
//! A [`oxbar_serve::FaultPlan`] keyed on the global batch dispatch
//! counter decides every chip kill: a chip is failed at dispatch count
//! `n` exactly when the plan kills it at a round below `n`, and every
//! fault decision asks at its own count. Drift decisions are keyed on the
//! same counter at drain boundaries. A dispatch round is as wide as the
//! cluster has chips, so the worker count only picks the threads a round
//! runs on: a scenario observes the same completions, outputs, sheds,
//! tokens and stats at every worker count, and without aging every
//! survivor answers what a never-faulted one-worker cluster answers.
//! [`runner::Scenario::check`] lists exactly what is asserted.
//!
//! - `faults`: failover, recovery and shedding on hand-built traces.
//! - `drift`: aging, recalibration and healing, alone and beside kills.
//! - `golden`: drift and fault decisions pinned to recorded values.
//! - `llm`: token streams under worker counts and kills, and batch-major
//!   decode.

mod drift;
mod faults;
mod golden;
mod llm;
mod runner;

use proptest::prelude::*;
use runner::Scenario;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Random scenarios: 2–4 small CNN models, optional llm_tiny
    // sequences, 1–3 kills, every placement, roomy or one-model budgets,
    // drift aging on or off, 1–3 drains.
    #[test]
    fn every_scenario_keeps_its_invariants_at_one_to_four_workers(seed in 0u64..10_000) {
        Scenario::draw(seed).check()?;
    }
}

/// The fault mix of seed 5: two chips with room for one model each,
/// chip 0 killed at dispatch 7 and chip 1 at 13. A recovery must read
/// chip health at its own batch: read as far as its round's last batch,
/// a round of two sees both chips dead at dispatch 7 and sheds requests
/// 7–15 instead of 13–15.
#[test]
fn fault_mix_seed_5_sheds_the_same_requests_at_every_worker_count() {
    let scenario = Scenario::fault_mix(5);
    scenario.check().unwrap();
    let run = scenario.run(|c| c.with_workers(4));
    assert_eq!(run.shed_infers(), [13, 14, 15]);
}
