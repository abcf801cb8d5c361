//! The experiment-layer error type.

use std::fmt;

/// Errors surfaced by the experiment layer.
#[derive(Debug)]
pub enum ExpError {
    /// The spec was structurally invalid (missing fields, unknown names, empty axes) or
    /// asked for something a job cannot do (e.g. phase remap of a workload without
    /// phases).
    BadSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// The spec file was not valid JSON.
    Json(ccache_json::ParseError),
    /// An experiment failed in the core layer.
    Core(ccache_core::CoreError),
    /// A simulator configuration was rejected.
    Sim(ccache_sim::SimError),
    /// A tuning job failed in the search layer.
    Opt(ccache_opt::OptError),
    /// Reading a spec or trace file failed.
    Io(std::io::Error),
    /// The spec's grids expand to more jobs than [`MAX_JOBS`](crate::spec::MAX_JOBS).
    TooManyJobs {
        /// The (saturating) number of jobs the spec expands to.
        jobs: u64,
        /// The limit it exceeds.
        limit: u64,
    },
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::BadSpec { reason } => write!(f, "invalid experiment spec: {reason}"),
            ExpError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            ExpError::Core(e) => write!(f, "{e}"),
            ExpError::Sim(e) => write!(f, "{e}"),
            ExpError::Opt(e) => write!(f, "{e}"),
            ExpError::Io(e) => write!(f, "{e}"),
            ExpError::TooManyJobs { jobs, limit } => write!(
                f,
                "invalid experiment spec: it expands to {jobs} jobs (the limit is {limit})"
            ),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExpError::BadSpec { .. } | ExpError::TooManyJobs { .. } => None,
            ExpError::Json(e) => Some(e),
            ExpError::Core(e) => Some(e),
            ExpError::Sim(e) => Some(e),
            ExpError::Opt(e) => Some(e),
            ExpError::Io(e) => Some(e),
        }
    }
}

impl From<ccache_json::ParseError> for ExpError {
    fn from(e: ccache_json::ParseError) -> Self {
        ExpError::Json(e)
    }
}

impl From<ccache_core::CoreError> for ExpError {
    fn from(e: ccache_core::CoreError) -> Self {
        ExpError::Core(e)
    }
}

impl From<ccache_sim::SimError> for ExpError {
    fn from(e: ccache_sim::SimError) -> Self {
        ExpError::Sim(e)
    }
}

impl From<ccache_opt::OptError> for ExpError {
    fn from(e: ccache_opt::OptError) -> Self {
        ExpError::Opt(e)
    }
}

impl From<std::io::Error> for ExpError {
    fn from(e: std::io::Error) -> Self {
        ExpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_layer() {
        let e = ExpError::BadSpec {
            reason: "no grids".to_owned(),
        };
        assert!(e.to_string().contains("invalid experiment spec"));
        let io: ExpError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
    }
}
