//! Experiment scale and host-execution control.
//!
//! Every experiment can run at a reduced scale (for unit tests and quick
//! smoke runs) or at full scale (`repro --full`). The scale only affects
//! sample counts — never the code paths being exercised. Orthogonally,
//! [`ExecSettings`] carries the host execution configuration (worker
//! threads + GEMM backend, from the `repro` CLI's `--threads` /
//! `--backend` flags) into the experiments; by the execution-layer
//! determinism contract it affects wall-clock time only, never the numbers
//! produced.

use serde::{Deserialize, Serialize};

use nbsmt_tensor::exec::{available_threads, ExecConfig, ExecContext, GemmBackendKind};

/// How much work an experiment performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Small sample counts: seconds per experiment, used by tests and by
    /// `repro` unless `--full` is given.
    #[default]
    Quick,
    /// The full sample counts (`repro --full`).
    Full,
}

impl Scale {
    /// Parses a spec/CLI-style scale name (`quick`, `full`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The canonical lower-case name (the value used in spec files).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// SynthNet training samples per class.
    pub fn train_per_class(self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::Full => 80,
        }
    }

    /// SynthNet held-out samples per class.
    pub fn test_per_class(self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 40,
        }
    }

    /// SynthNet training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 12,
        }
    }

    /// Cap on synthesized GEMM rows per zoo layer.
    pub fn max_rows(self) -> usize {
        match self {
            Scale::Quick => 64,
            Scale::Full => 192,
        }
    }

    /// Cap on synthesized GEMM columns per zoo layer.
    pub fn max_cols(self) -> usize {
        match self {
            Scale::Quick => 32,
            Scale::Full => 96,
        }
    }

    /// Column stride used when enumerating MAC pairs of large layers.
    pub fn col_stride(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 1,
        }
    }
}

/// Host-execution settings for an experiment run: how many worker threads
/// the execution layer may use and which GEMM backend it dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecSettings {
    /// Worker threads for the execution layer's pool.
    pub threads: usize,
    /// GEMM backend.
    pub backend: GemmBackendKind,
}

impl ExecSettings {
    /// The `repro` CLI default: the parallel backend over every available
    /// hardware thread.
    pub fn parallel() -> Self {
        ExecSettings {
            threads: available_threads(),
            backend: GemmBackendKind::Parallel,
        }
    }

    /// One thread, seed scalar kernel — the degenerate mode CI smokes.
    pub fn sequential() -> Self {
        ExecSettings {
            threads: 1,
            backend: GemmBackendKind::Naive,
        }
    }

    /// The raw execution config these settings describe (for APIs that
    /// spawn their own contexts, like the threaded replica pool).
    pub fn config(&self) -> ExecConfig {
        ExecConfig {
            threads: self.threads,
            backend: self.backend,
            ..ExecConfig::default()
        }
    }

    /// Builds the execution context these settings describe.
    pub fn context(&self) -> ExecContext {
        ExecContext::new(self.config())
    }
}

impl Default for ExecSettings {
    fn default() -> Self {
        Self::parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_settings_build_matching_contexts() {
        let seq = ExecSettings::sequential().context();
        assert_eq!(seq.threads(), 1);
        assert_eq!(seq.config().backend, GemmBackendKind::Naive);
        let par = ExecSettings::default().context();
        assert!(par.threads() >= 1);
        assert_eq!(par.config().backend, GemmBackendKind::Parallel);
    }

    #[test]
    fn full_scale_is_larger_everywhere() {
        assert!(Scale::Full.train_per_class() > Scale::Quick.train_per_class());
        assert!(Scale::Full.test_per_class() > Scale::Quick.test_per_class());
        assert!(Scale::Full.epochs() > Scale::Quick.epochs());
        assert!(Scale::Full.max_rows() > Scale::Quick.max_rows());
        assert!(Scale::Full.max_cols() > Scale::Quick.max_cols());
        assert!(Scale::Full.col_stride() < Scale::Quick.col_stride());
        assert_eq!(Scale::default(), Scale::Quick);
    }
}
