//! Perf snapshot: field-walk vs compiled transfer-matrix device MVM.
//!
//! Writes `BENCH_device_mvm.json` at the workspace root. Pass `--quick`
//! for the CI smoke variant (small workloads, same schema), written to
//! `results/BENCH_device_mvm.json` instead.

use oxbar_bench::device_mvm;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    device_mvm::render(&device_mvm::run(quick));
}
