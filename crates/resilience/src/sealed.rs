//! The one write/read path for sealed JSON documents (DSE checkpoints,
//! portfolios, campaign checkpoints): each document type supplies only
//! its encoder and decoder.

use crate::atomic::{atomic_write_rotating, backup_path};
use crate::envelope::{seal, unseal};
use crate::error::ResilienceError;
use std::path::Path;

/// Seals `text` as a `kind` envelope and writes it to `path` with
/// [`atomic_write_rotating`], so the previous version survives as
/// `<path>.bak`.
///
/// # Errors
///
/// Returns [`ResilienceError::Io`] when staging, renaming, or syncing
/// fails.
pub fn write_sealed(path: &Path, kind: &str, text: &str) -> Result<(), ResilienceError> {
    atomic_write_rotating(path, &seal(kind, text.as_bytes()))
}

/// Unseals `bytes` (as read from `path`, used only for error context),
/// checks that the payload is UTF-8, and decodes it. A decoder's error
/// becomes [`ResilienceError::Malformed`] naming `path`.
///
/// # Errors
///
/// Every error is corruption-class: [`unseal`]'s, a non-UTF-8 payload, or
/// the decoder's.
pub fn unseal_with<T>(
    kind: &str,
    path: &Path,
    bytes: &[u8],
    decode: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, ResilienceError> {
    let malformed = |detail: String| ResilienceError::Malformed {
        path: path.to_path_buf(),
        detail,
    };
    let payload = unseal(kind, path, bytes)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| malformed("payload is not valid UTF-8".into()))?;
    decode(text).map_err(malformed)
}

/// Reads the `kind` document at `path`, falling back to `<path>.bak` when
/// the primary is corrupt ([`ResilienceError::is_corruption`]: torn
/// write, bad checksum, wrong version, undecodable payload) or missing
/// while the backup exists. A process killed between the two renames of
/// [`atomic_write_rotating`] leaves exactly that: the previous version as
/// `<path>.bak` and no primary. Returns the value and whether the backup
/// was used. Any other unreadable primary is an I/O error and does not
/// trigger the fallback.
///
/// # Errors
///
/// Returns the primary's error when it triggers no fallback or when the
/// backup is unusable too.
pub fn read_sealed<T>(
    path: &Path,
    kind: &str,
    decode: impl Fn(&str) -> Result<T, String>,
) -> Result<(T, bool), ResilienceError> {
    let read = |p: &Path| -> Result<T, ResilienceError> {
        let bytes = std::fs::read(p).map_err(|e| ResilienceError::io(p, "read", e))?;
        unseal_with(kind, p, &bytes, &decode)
    };
    let backup = backup_path(path);
    match read(path) {
        Ok(value) => Ok((value, false)),
        Err(primary) if primary.is_corruption() || (is_not_found(&primary) && backup.exists()) => {
            match read(&backup) {
                Ok(value) => Ok((value, true)),
                // The primary's diagnosis is the interesting one.
                Err(_) => Err(primary),
            }
        }
        Err(e) => Err(e),
    }
}

fn is_not_found(err: &ResilienceError) -> bool {
    matches!(err, ResilienceError::Io { source, .. } if source.kind() == std::io::ErrorKind::NotFound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const KIND: &str = "toy";

    /// Decodes `n=<u64>`.
    fn toy(text: &str) -> Result<u64, String> {
        text.strip_prefix("n=")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("not a toy document: `{text}`"))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcmap_resilience_sealed_{name}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn good_primary_is_read_without_fallback() {
        let path = tmpdir("good").join("doc");
        write_sealed(&path, KIND, "n=1").unwrap();
        write_sealed(&path, KIND, "n=2").unwrap();
        assert_eq!(read_sealed(&path, KIND, toy).unwrap(), (2, false));
    }

    #[test]
    fn truncated_primary_falls_back_to_the_backup() {
        let path = tmpdir("truncated").join("doc");
        write_sealed(&path, KIND, "n=1").unwrap();
        write_sealed(&path, KIND, "n=2").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(read_sealed(&path, KIND, toy).unwrap(), (1, true));
    }

    #[test]
    fn decode_errors_fall_back_and_otherwise_name_the_primary() {
        let path = tmpdir("decode").join("doc");
        write_sealed(&path, KIND, "n=1").unwrap();
        write_sealed(&path, KIND, "garbage").unwrap();
        assert_eq!(read_sealed(&path, KIND, toy).unwrap(), (1, true));

        std::fs::remove_file(backup_path(&path)).unwrap();
        match read_sealed(&path, KIND, toy) {
            Err(ResilienceError::Malformed {
                path: named,
                detail,
            }) => {
                assert_eq!(named, path);
                assert!(detail.contains("not a toy document"), "{detail}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn missing_primary_falls_back_to_the_backup() {
        // What a kill between the two renames of a rotating write leaves.
        let path = tmpdir("missing").join("doc");
        write_sealed(&path, KIND, "n=1").unwrap();
        write_sealed(&path, KIND, "n=2").unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_sealed(&path, KIND, toy).unwrap(), (1, true));
    }

    #[test]
    fn missing_primary_and_backup_is_io() {
        let path = tmpdir("neither").join("doc");
        let err = read_sealed(&path, KIND, toy).unwrap_err();
        assert!(
            matches!(&err, ResilienceError::Io { op: "read", path: named, .. } if *named == path),
            "{err:?}"
        );
    }

    #[test]
    fn non_utf8_payload_is_malformed() {
        let err = unseal_with(KIND, Path::new("doc"), &seal(KIND, b"n=\xff"), toy).unwrap_err();
        assert!(matches!(err, ResilienceError::Malformed { .. }), "{err:?}");
    }
}
