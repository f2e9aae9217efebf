//! NFactor — automatic synthesis of NF forwarding models by program
//! analysis (HotNets-XV 2016), end to end.
//!
//! [`synthesize`] runs the whole of Algorithm 1 on an NFL source:
//!
//! 1. **Normalise** the code structure to a single per-packet loop
//!    (Figure 4b/4c → 4a via `nfl-analysis`; Figure 4d via `nf-tcp`'s
//!    socket unfolding, Figure 5).
//! 2. **Packet slice** — backward slices from every `send` (lines 1–4).
//! 3. **StateAlyzer** on the slice — classify `pktVar` / `cfgVar` /
//!    `oisVar` / `logVar` (line 5, Table 1).
//! 4. **State slice** — backward slices from every `oisVar` assignment
//!    (lines 6–9); union with the packet slice (line 10 input).
//! 5. **Symbolic execution** of the slice union — all execution paths
//!    (line 10).
//! 6. **Refactor** each path into a model entry (lines 11–16) —
//!    the per-configuration stateful match/action tables of Figure 2a.
//!
//! [`Pipeline::analyze`] stops after step 4, with the placement verdict
//! taken on the same PDG (an [`Analysis`]); [`Pipeline::finish`] runs
//! steps 5–6 on it. The [`Synthesis`] result carries every intermediate
//! artifact plus the [`Metrics`] that regenerate the paper's Table 2,
//! and [`accuracy`] implements the §5 equivalence experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod filter;
pub mod pipeline;

pub use filter::filter_loop;
pub use pipeline::{
    Analysis, Error, Metrics, Pipeline, PipelineBuilder, PipelineConfig, Synthesis, MAX_SHARDS,
};
