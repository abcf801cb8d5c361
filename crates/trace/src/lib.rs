//! Memory reference traces for the column-caching reproduction.
//!
//! This crate provides the *trace substrate* used throughout the workspace:
//!
//! * [`event::MemAccess`] — a single memory reference (address, size, read/write,
//!   optional program-variable annotation).
//! * [`trace::Trace`] — an ordered sequence of references, the unit consumed by the
//!   cache simulator in `ccache-sim`.
//! * [`region::SymbolTable`] and [`region::VariableRegion`] — the mapping between program
//!   variables (arrays, scalars) and the address ranges they occupy.
//! * [`recorder::TraceRecorder`] — used by the instrumented workloads in
//!   `ccache-workloads` to emit a reference stream while real Rust kernels execute.
//! * [`profile::AccessProfile`] — per-variable access counts and lifetimes derived from a
//!   trace, the input of the data-layout algorithm in `ccache-layout` (Section 3.1.1 of
//!   the paper).
//! * [`lifetime::Interval`] — lifetime intervals `[first, last]` over trace positions.
//! * [`synth`] — synthetic reference-stream generators used by tests and ablations.
//! * [`infer`] — symbol-table inference for raw traces (cluster touched lines into
//!   synthetic regions), so file traces without annotations can still drive the layout
//!   and search tooling.
//! * [`binfmt`] — the compact binary on-disk trace format (magic + version header,
//!   varint delta-encoded addresses, run-length read/write flags) and the streaming
//!   [`binfmt::TraceReader`] that replays traces larger than memory.
//! * [`textfmt`] — the line-oriented text trace format (`R 0x1000 4`) for hand-written
//!   traces and inspection.
//! * [`load_trace`] — the one loader of trace files, in either format.
//!
//! # Example
//!
//! ```
//! use ccache_trace::recorder::TraceRecorder;
//! use ccache_trace::event::AccessKind;
//!
//! let mut rec = TraceRecorder::new();
//! let a = rec.allocate("a", 64, 8);
//! let b = rec.allocate("b", 64, 8);
//! for i in 0..8u64 {
//!     rec.record(a, i * 8, 8, AccessKind::Read);
//!     rec.record(b, i * 8, 8, AccessKind::Write);
//! }
//! let (trace, symbols) = rec.finish();
//! assert_eq!(trace.len(), 16);
//! assert_eq!(symbols.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod binfmt;
pub mod error;
pub mod event;
pub mod infer;
pub mod lifetime;
pub mod profile;
pub mod recorder;
pub mod region;
pub mod synth;
pub mod textfmt;
pub mod trace;

pub use binfmt::{TraceHeader, TraceReader, TraceWriter};
pub use error::TraceError;
pub use event::{AccessKind, MemAccess, VarId};
pub use infer::infer_symbols;
pub use lifetime::Interval;
pub use profile::{AccessProfile, VariableProfile};
pub use recorder::TraceRecorder;
pub use region::{SymbolTable, VariableRegion};
pub use trace::Trace;

use std::io::{self, BufReader};
use std::path::Path;

/// Loads a whole trace file in either on-disk format: [`binfmt::is_binary_trace_file`]
/// sniffs it (refusing anything that is not a regular file), then [`binfmt`] or
/// [`textfmt`] decodes it.
///
/// # Errors
///
/// Fails if the path is not a regular file, on I/O errors, and on malformed contents.
pub fn load_trace<P: AsRef<Path>>(path: P) -> io::Result<Trace> {
    let path = path.as_ref();
    if binfmt::is_binary_trace_file(path)? {
        TraceReader::open(path)?.read_to_trace()
    } else {
        textfmt::read_trace(BufReader::new(std::fs::File::open(path)?))
    }
}
