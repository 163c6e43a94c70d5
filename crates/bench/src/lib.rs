//! # semitri-bench — experiment harness for the SeMiTri reproduction
//!
//! One module per table/figure of the paper's evaluation (§5). The
//! `experiments` binary dispatches to them; Criterion micro-benches live
//! in `benches/`.
//!
//! End-to-end and per-layer performance is measured by the ladder
//! benchmark in `benchmark/`, not here. The one tracked benchmark left in
//! this crate, [`hotpath`], covers the `geo` / `index` kernels no ladder
//! rung isolates (`BENCH_annotation.json` is its committed baseline).
//!
//! Every experiment is deterministic (fixed seeds, printed in the output)
//! and sized to run on a laptop; pass `--scale N` to the binary to grow
//! the datasets toward paper scale.

pub mod ablations;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig14;
pub mod fig15_16;
pub mod fig17;
pub mod fig9;
pub mod hotpath;
pub mod tables;
pub mod throughput;
pub mod util;

/// Global experiment scale factor (1 = laptop defaults).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    /// Multiplies a base count by the scale.
    pub fn apply(&self, base: usize) -> usize {
        base * self.0.max(1)
    }
}
