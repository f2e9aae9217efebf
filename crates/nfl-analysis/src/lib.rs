//! Program analyses over NFL — the giri-substitute substrate.
//!
//! NFactor's Algorithm 1 needs, in order:
//!
//! 1. a **control-flow graph** per function ([`mod@cfg`]),
//! 2. **dominator / post-dominator trees** ([`dom`]) feeding
//! 3. **control dependence** ([`cd`]) and, with per-statement
//!    **def/use sets** ([`defuse`]) and **reaching definitions**
//!    ([`reach`]), **data dependence**, assembled into
//! 4. the **program dependence graph** ([`pdg`]) on which `nfl-slicer`
//!    computes backward slices, and
//! 5. the **structure passes** the paper's §3.2 describes: function
//!    inlining ([`inline`]) and normalisation of the four NF code shapes
//!    of Figure 4 into the single processing loop of Figure 4a
//!    ([`mod@normalize`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod cd;
pub mod cfg;
pub mod defuse;
pub mod dom;
pub mod inline;
pub mod live;
pub mod normalize;
pub mod pdg;
pub mod reach;

pub use cfg::{Cfg, EdgeKind, NodeId, NodeKind};
pub use defuse::{DefKind, DefUse};
pub use inline::inline_program;
pub use live::{liveness, Liveness};
pub use normalize::{normalize, PacketLoop, StructureError};
pub use pdg::{DepEdge, DepKind, Pdg};
