//! The declarative experiment layer: one spec → plan → execute → report pipeline.
//!
//! Every result in the paper — the Figure 4 partition sweeps, the Figure 4(d) dynamic
//! comparison, the Figure 5 multitasking series, the ablations — is an instance of one
//! experiment shape: *a grid of (workload × backend × geometry × mapping policy),
//! replayed and reported*. This crate makes that shape a first-class value:
//!
//! * [`spec`] — the declarative [`ExperimentSpec`]: a union of cross-product grids,
//!   parsed from JSON (`examples/specs/*.json`) or built programmatically;
//! * [`mod@plan`] — the [`Planner`](plan::plan): grid expansion with canonical-key dedup
//!   (the same configuration is never replayed twice) in first-occurrence order;
//! * [`exec`] — the [`Executor`](exec::execute): thread-parallel replay, one freshly
//!   built `ccache-core` `ReplayEngine` per job, byte-identical output with
//!   parallelism on or off;
//! * [`artefact`] — the unified [`Artefact`] report schema every run serializes to;
//! * [`presets`] — the legacy CLI commands (`fig4`, `fig5`, `ablation`, `sweep`)
//!   compiled to specs;
//! * [`scale`] — the `--quick`/paper experiment scales (moved here from the CLI).
//!
//! # Example: a two-policy grid over one kernel
//!
//! ```
//! use ccache_exp::exec::ExecOptions;
//! use ccache_exp::run_spec;
//! use ccache_exp::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::parse_str(r#"{
//!     "name": "fir-policies",
//!     "replay": [{ "workloads": ["fir"], "policies": ["shared", "heuristic"] }]
//! }"#)?;
//! let artefact = run_spec(&spec, &ExecOptions { quick: true, ..ExecOptions::default() })?;
//! assert_eq!(artefact.outcomes.len(), 2);
//! # Ok::<(), ccache_exp::ExpError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod artefact;
pub mod error;
pub mod exec;
pub mod plan;
pub mod presets;
pub mod scale;
pub mod spec;

pub use artefact::{run_spec, Artefact};
pub use error::ExpError;
pub use exec::{execute, ExecOptions, JobOutcome, LayoutInfo, ObserveOptions};
pub use plan::{plan, JobUnit, Plan};
pub use scale::Scale;
pub use spec::{ExperimentSpec, GeometrySpec, PolicySpec, ReplayGrid, WorkloadSel};
