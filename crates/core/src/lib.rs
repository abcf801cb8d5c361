//! Application-specific memory management with a software-controlled (column) cache.
//!
//! This crate is the top of the reproduction stack: it combines the cache/TLB/tint
//! simulator (`ccache-sim`), the data-layout algorithms (`ccache-layout`) and the
//! instrumented workloads (`ccache-workloads`) into the experiments the paper reports.
//!
//! * [`runner`] — program a [`ccache_sim::MemorySystem`] from a column assignment
//!   ([`runner::CacheMapping`]) and replay traces ([`runner::run_trace`]).
//! * [`placement`] — relocate program variables (page alignment, scratchpad packing)
//!   before an experiment.
//! * [`engine`] — the batched [`ReplayEngine`]: one replay loop over an in-memory
//!   trace, a decoded reference slice or a streaming binary-trace reader, optionally
//!   observed window by window ([`observe`]).
//! * [`fitness`] — the replay engine packaged as a fitness function for configuration
//!   search ([`fitness::ReplayFitness`]): one fresh engine per candidate over a trace
//!   decoded once, with order-preserving parallel batches.
//! * [`partition`] — the Figure 4 scratchpad/cache partition sweep.
//! * [`dynamic`] — the dynamically remapped column-cache run of Figure 4(d).
//! * [`multitask`] — the Figure 5 multitasking CPI-vs-quantum experiment.
//! * [`report`] — the tables printed by the benchmark harness.
//!
//! # Example: isolate a streaming variable from a hot table
//!
//! ```
//! use ccache_core::runner::{run_trace, CacheMapping, RegionMapping};
//! use ccache_sim::{ColumnMask, SystemConfig};
//! use ccache_trace::synth::sequential_scan;
//! use ccache_trace::Trace;
//!
//! // A hot 512-byte table walked twice, with a 32 KiB stream in between.
//! let hot = sequential_scan(0x0, 512, 32, 4, 1, None);
//! let stream = sequential_scan(0x10_0000, 32 * 1024, 32, 4, 1, None);
//! let trace = Trace::concat([&hot, &stream, &hot]);
//!
//! // Confine the stream to one column so it cannot evict the table.
//! let mut mapping = CacheMapping::new();
//! mapping.map(0x10_0000, 32 * 1024, RegionMapping::Columns { mask: ColumnMask::single(3) });
//!
//! let cfg = SystemConfig { page_size: 256, ..SystemConfig::default() };
//! let partitioned = run_trace("partitioned", cfg, &mapping, &trace)?;
//! let shared = run_trace("shared", cfg, &CacheMapping::new(), &trace)?;
//! assert!(partitioned.total_cycles() < shared.total_cycles());
//! # Ok::<(), ccache_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dynamic;
pub mod engine;
pub mod error;
pub mod fitness;
pub mod multitask;
pub mod observe;
pub mod parallel;
pub mod partition;
pub mod placement;
pub mod report;
pub mod runner;

pub use dynamic::{run_dynamic, run_dynamic_observed, DynamicRunResult, Figure4dResult};
pub use engine::ReplayEngine;
pub use error::CoreError;
pub use fitness::{Candidate, ReplayFitness};
pub use multitask::{
    quantum_sweep, run_multitasking, JobMetrics, MultitaskConfig, MultitaskRun, QuantumSeries,
    SharingPolicy,
};
pub use observe::{
    NoopObserver, ReplayEvent, ReplayObserver, SeriesRecorder, TimeSeries, WindowSample,
};
pub use partition::{
    partition_sweep, partition_sweep_serial, PartitionConfig, PartitionPoint, PartitionSweep,
};
pub use placement::{pack_scratchpad_first, page_aligned, relocate, PlacementPlan};
pub use report::SweepReport;
pub use runner::{run_on, run_trace, run_trace_on, CacheMapping, RegionMapping, RunResult};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::dynamic::{run_dynamic, Figure4dResult};
    pub use crate::engine::ReplayEngine;
    pub use crate::error::CoreError;
    pub use crate::fitness::{Candidate, ReplayFitness};
    pub use crate::multitask::{quantum_sweep, run_multitasking, MultitaskConfig, SharingPolicy};
    pub use crate::partition::{partition_sweep, PartitionConfig, PartitionSweep};
    pub use crate::report::SweepReport;
    pub use crate::runner::{run_trace, run_trace_on, CacheMapping, RegionMapping, RunResult};
}
