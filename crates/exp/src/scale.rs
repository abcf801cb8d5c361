//! Experiment scales and the fixed figure configurations.
//!
//! The experiment layer and the CLI resolve `--quick` and the paper's configurations
//! through this one definition (the CLI re-exports it).

use ccache_core::partition::PartitionConfig;
use ccache_workloads::gzipsim::GzipConfig;
use ccache_workloads::mpeg::MpegConfig;

/// Scale of an experiment run: `Paper` uses the full working sets, `Quick` shrinks them so
/// smoke tests and CI finish fast while preserving every qualitative shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full-size experiment (matches the configuration described in DESIGN.md).
    Paper,
    /// Reduced-size experiment for quick runs.
    Quick,
}

impl Scale {
    /// `Quick` when the `--quick` flag was given, `Paper` otherwise.
    pub fn from_quick(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Whether this is the reduced scale.
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }

    /// The MPEG workload configuration for this scale.
    pub fn mpeg(self) -> MpegConfig {
        match self {
            Scale::Paper => MpegConfig::default(),
            Scale::Quick => MpegConfig::small(),
        }
    }

    /// The gzip job configuration for this scale.
    pub fn gzip(self) -> GzipConfig {
        match self {
            Scale::Paper => GzipConfig::default(),
            Scale::Quick => GzipConfig {
                input_len: 4 * 1024,
                ..GzipConfig::default()
            },
        }
    }

    /// The quantum sweep for this scale (the paper sweeps 1 to 1 M in powers of 4).
    pub fn quanta(self) -> Vec<usize> {
        let max_pow = match self {
            Scale::Paper => 10,
            Scale::Quick => 7,
        };
        (0..=max_pow).map(|p| 4usize.pow(p)).collect()
    }
}

/// The Figure 4 experiment configuration (2 KB, 4 columns, 32-byte lines).
pub fn figure4_config() -> PartitionConfig {
    PartitionConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_but_same_shape() {
        let quick = Scale::Quick.mpeg();
        let paper = Scale::Paper.mpeg();
        assert!(quick.idct_blocks < paper.idct_blocks);
        assert!(quick.idct_blocks * 128 > 2048);
        assert!(Scale::Quick.quanta().len() < Scale::Paper.quanta().len());
        assert!(Scale::Quick.gzip().input_len < Scale::Paper.gzip().input_len);
        assert_eq!(Scale::from_quick(true), Scale::Quick);
        assert!(!Scale::from_quick(false).is_quick());
    }

    #[test]
    fn figure_configs_match_paper_parameters() {
        let f4 = figure4_config();
        assert_eq!(f4.capacity_bytes, 2048);
        assert_eq!(f4.columns, 4);
    }
}
