//! The typed error surface of the resilience layer.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong while persisting or recovering pipeline
/// artifacts. Every variant names the file involved so callers can report
/// actionable diagnostics (and tests can assert on the failure class).
#[derive(Debug)]
#[non_exhaustive]
pub enum ResilienceError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file being written or read.
        path: PathBuf,
        /// Which operation failed (`create`, `write`, `sync`, `rename`, …).
        op: &'static str,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// The file is shorter than its envelope header claims — the classic
    /// artifact of a crash mid-write.
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// Payload bytes the header promised.
        expected: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The payload does not hash to the checksum recorded in the header.
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The envelope carries a kind or version this build does not speak.
    VersionMismatch {
        /// The offending file.
        path: PathBuf,
        /// The header line found.
        found: String,
        /// The header this build writes and accepts.
        expected: String,
    },
    /// The file is structurally broken beyond the envelope (bad header
    /// syntax, unparseable payload).
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// A checkpoint or portfolio was produced by a different
    /// problem/configuration and must not be used with this one (resuming
    /// or materializing it would silently change results).
    ConfigMismatch {
        /// The offending checkpoint or portfolio.
        path: PathBuf,
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint recorded in the file.
        actual: u64,
        /// Human-readable per-field differences between the checkpoint's
        /// recorded configuration summary and the current one, each line
        /// shaped `field: checkpoint=<old> current=<new>`. Empty when the
        /// checkpoint predates config summaries or the divergence is
        /// outside the summarized fields (e.g. the model itself changed).
        diff: Vec<String>,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Io { path, op, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            ResilienceError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: truncated ({actual} of {expected} payload bytes)",
                path.display()
            ),
            ResilienceError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: checksum mismatch (header {expected:016x}, content {actual:016x})",
                path.display()
            ),
            ResilienceError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: unsupported envelope `{found}` (this build speaks `{expected}`)",
                path.display()
            ),
            ResilienceError::Malformed { path, detail } => {
                write!(f, "{}: malformed: {detail}", path.display())
            }
            ResilienceError::ConfigMismatch {
                path,
                expected,
                actual,
                diff,
            } => {
                write!(
                    f,
                    "{}: written for a different run configuration \
                     (expected fingerprint {expected:016x}, found {actual:016x})",
                    path.display()
                )?;
                if !diff.is_empty() {
                    write!(f, "; mismatching fields: {}", diff.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ResilienceError {
    /// Shorthand constructor for I/O failures.
    pub fn io(path: &std::path::Path, op: &'static str, source: std::io::Error) -> Self {
        ResilienceError::Io {
            path: path.to_path_buf(),
            op,
            source,
        }
    }

    /// The file the error names.
    pub fn path(&self) -> &std::path::Path {
        match self {
            ResilienceError::Io { path, .. }
            | ResilienceError::Truncated { path, .. }
            | ResilienceError::ChecksumMismatch { path, .. }
            | ResilienceError::VersionMismatch { path, .. }
            | ResilienceError::Malformed { path, .. }
            | ResilienceError::ConfigMismatch { path, .. } => path,
        }
    }

    /// Whether the error means "the file on disk is damaged" (truncated,
    /// corrupt, or unreadable as an envelope) — the class that checkpoint
    /// recovery falls back from, as opposed to caller mistakes like
    /// [`ResilienceError::ConfigMismatch`].
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            ResilienceError::Truncated { .. }
                | ResilienceError::ChecksumMismatch { .. }
                | ResilienceError::VersionMismatch { .. }
                | ResilienceError::Malformed { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn renders_name_the_file_and_the_class() {
        let e = ResilienceError::Truncated {
            path: "/tmp/ck".into(),
            expected: 100,
            actual: 40,
        };
        let msg = e.to_string();
        assert!(msg.contains("/tmp/ck") && msg.contains("truncated"));
        assert!(e.is_corruption());

        let e = ResilienceError::io(Path::new("/x"), "rename", std::io::Error::other("boom"));
        assert!(e.to_string().contains("rename"));
        assert!(!e.is_corruption());
        assert!(std::error::Error::source(&e).is_some());

        let e = ResilienceError::ConfigMismatch {
            path: "/tmp/ck".into(),
            expected: 1,
            actual: 2,
            diff: vec![],
        };
        assert!(e.to_string().contains("different run configuration"));
        assert!(!e.to_string().contains("mismatching fields"));
        assert!(!e.is_corruption());
    }

    #[test]
    fn config_mismatch_renders_its_field_diff() {
        let e = ResilienceError::ConfigMismatch {
            path: "/tmp/ck".into(),
            expected: 1,
            actual: 2,
            diff: vec![
                "ga.population: checkpoint=12 current=24".into(),
                "ga.seed: checkpoint=8 current=9".into(),
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("mismatching fields"));
        assert!(msg.contains("ga.population: checkpoint=12 current=24"));
        assert!(msg.contains("ga.seed: checkpoint=8 current=9"));
    }
}
