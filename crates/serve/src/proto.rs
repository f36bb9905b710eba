//! The wire protocol: 4-byte big-endian length prefix + one JSON document
//! per frame, in the workspace's hand-rolled JSON idiom (no serde).
//!
//! Requests are objects with a `"verb"` member; responses either carry
//! `"ok":true` plus verb-specific payload members, or `"ok":false` with an
//! `"error"` string. The `stream` verb is the one exception to strict
//! request/response alternation: after the initial acknowledgement the
//! server pushes progress frames until the job reaches a terminal state.

use mcmap_obs::push_json_str;
use std::io::{Read, Write};

/// Frames larger than this are rejected as malformed — no legitimate
/// request or response comes close, and the bound keeps a corrupt length
/// prefix from allocating gigabytes.
pub const MAX_FRAME: usize = 16 << 20;

/// A typed frame-decode failure. Both variants are detected from the
/// 4-byte length prefix alone, *before* any payload buffer is allocated,
/// so a corrupt or adversarial prefix can neither panic the decoder nor
/// reserve gigabytes. `read_frame` wraps these in
/// [`std::io::ErrorKind::InvalidData`]; recover the typed value with
/// [`FrameError::from_io`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A zero-length frame. No valid request or response is empty (the
    /// smallest legal frame is `{}`), so an empty frame means the peer is
    /// desynchronized and the connection must be dropped.
    Empty,
    /// The length prefix promises more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The advertised frame length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Empty => write!(f, "zero-length frame (desynchronized peer)"),
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Recovers the typed frame error carried inside an I/O error, if
    /// any.
    pub fn from_io(e: &std::io::Error) -> Option<FrameError> {
        e.get_ref()?.downcast_ref::<FrameError>().copied()
    }

    fn into_io(self) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, self)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// (peer closed between frames).
///
/// # Errors
///
/// Propagates I/O errors. A zero-length or over-[`MAX_FRAME`] prefix
/// yields `InvalidData` carrying a typed [`FrameError`] — both are
/// rejected before the payload buffer is allocated — and an invalid-UTF-8
/// payload yields plain `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Err(FrameError::Empty.into_io());
    }
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len }.into_io());
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Builds the uniform error response frame.
pub fn error_frame(message: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    push_json_str(&mut out, message);
    out.push('}');
    out
}

/// Builds an `"ok":true` response from pre-rendered payload members
/// (`payload` is spliced verbatim after `"ok":true`, so it must start
/// with `,` or be empty).
pub fn ok_frame(payload: &str) -> String {
    debug_assert!(payload.is_empty() || payload.starts_with(','));
    format!("{{\"ok\":true{payload}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmap_obs::parse_json;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"verb\":\"status\"}").unwrap();
        write_frame(&mut buf, &ok_frame(",\"id\":\"job-1\"")).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "{\"verb\":\"status\"}"
        );
        let second = read_frame(&mut r).unwrap().unwrap();
        let json = parse_json(&second).unwrap();
        assert_eq!(json.get("ok"), Some(&mcmap_obs::Json::Bool(true)));
        assert_eq!(json.get("id").and_then(|v| v.as_str()), Some("job-1"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_and_torn_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            FrameError::from_io(&err),
            Some(FrameError::Oversized {
                len: u32::MAX as usize
            })
        );
        // A length prefix promising more bytes than present is an
        // unexpected EOF, not a clean close.
        let mut torn = Vec::new();
        torn.extend_from_slice(&8u32.to_be_bytes());
        torn.extend_from_slice(b"abc");
        assert!(read_frame(&mut torn.as_slice()).is_err());
    }

    #[test]
    fn zero_length_frames_are_a_typed_desync_error() {
        let buf = 0u32.to_be_bytes();
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(FrameError::from_io(&err), Some(FrameError::Empty));
        // The error survives the usual stringly transport wrapping.
        assert!(err.to_string().contains("zero-length"));
    }

    #[test]
    fn escapes_cover_control_characters() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let parsed = parse_json(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn error_frames_parse() {
        let f = error_frame("no such job \"x\"");
        let json = parse_json(&f).unwrap();
        assert_eq!(json.get("ok"), Some(&mcmap_obs::Json::Bool(false)));
        assert_eq!(
            json.get("error").and_then(|v| v.as_str()),
            Some("no such job \"x\"")
        );
    }
}
