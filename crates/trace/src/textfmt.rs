//! A line-oriented text trace format, for hand-written traces and inspection.
//!
//! One event per line: the access kind (`R` or `W`), the byte address (hexadecimal with a
//! `0x` prefix, or decimal), and the access size in bytes. Blank lines and lines starting
//! with `#` are ignored, so files can carry comments:
//!
//! ```text
//! # two reads and a write
//! R 0x1000 4
//! R 0x1004 4
//! W 4104 8
//! ```
//!
//! This is the human-facing companion of the compact binary format in [`crate::binfmt`]:
//! `ccache trace convert` translates between the two. Like the binary format, variable
//! annotations are not represented. Parse problems are reported as [`std::io::Error`]
//! with [`std::io::ErrorKind::InvalidData`] and a line number; messages never quote the
//! input, so a file read on someone else's behalf does not leak through its errors.

use crate::event::{AccessKind, MemAccess};
use crate::trace::Trace;
use std::io::{self, BufRead, Read, Write};

/// Longest line [`read_trace`] accepts, in bytes (without the newline). A legal event line
/// is under 48 bytes; the cap leaves room for comments while bounding what one line of an
/// endless or binary input can make the reader buffer.
pub const MAX_LINE_BYTES: usize = 4096;

fn invalid(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("line {line_no}: {msg}"))
}

fn parse_u64(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Parses one non-comment line into an event.
///
/// # Errors
///
/// Fails with [`std::io::ErrorKind::InvalidData`] if the line is not `R|W <addr> <size>`.
fn parse_line(line_no: usize, line: &str) -> io::Result<MemAccess> {
    let mut tokens = line.split_whitespace();
    let kind = match tokens.next() {
        Some("R") | Some("r") => AccessKind::Read,
        Some("W") | Some("w") => AccessKind::Write,
        _ => return Err(invalid(line_no, "expected access kind 'R' or 'W'")),
    };
    let addr = tokens
        .next()
        .and_then(parse_u64)
        .ok_or_else(|| invalid(line_no, "expected an address"))?;
    let size = tokens
        .next()
        .and_then(parse_u64)
        .and_then(|s| u32::try_from(s).ok())
        .ok_or_else(|| invalid(line_no, "expected a size in bytes"))?;
    if tokens.next().is_some() {
        return Err(invalid(line_no, "trailing tokens after size"));
    }
    Ok(MemAccess {
        addr,
        size,
        kind,
        var: None,
    })
}

/// Reads a whole text trace from a buffered source.
///
/// # Errors
///
/// Fails on I/O errors, on malformed lines and on any line longer than
/// [`MAX_LINE_BYTES`], which is refused without being buffered whole.
pub fn read_trace<R: BufRead>(mut source: R) -> io::Result<Trace> {
    let mut trace = Trace::new();
    let mut line = Vec::new();
    for line_no in 1.. {
        line.clear();
        // One byte past the cap is enough to tell an overlong line from a full one.
        let cap = MAX_LINE_BYTES as u64 + 1;
        if (&mut source).take(cap).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE_BYTES {
            let msg = format!("longer than {MAX_LINE_BYTES} bytes");
            return Err(invalid(line_no, &msg));
        }
        let text = std::str::from_utf8(&line).map_err(|_| invalid(line_no, "not UTF-8"))?;
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        trace.push(parse_line(line_no, trimmed)?);
    }
    Ok(trace)
}

/// Writes one event as a text line (`R 0x1000 4`). This is the single definition of the
/// output grammar; [`write_trace`] and streaming converters both go through it.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_event<W: Write>(sink: &mut W, ev: &MemAccess) -> io::Result<()> {
    writeln!(
        sink,
        "{} {:#x} {}",
        if ev.is_write() { 'W' } else { 'R' },
        ev.addr,
        ev.size
    )
}

/// Writes a trace in the text format and returns the sink.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_trace<W: Write>(trace: &Trace, mut sink: W) -> io::Result<W> {
    for ev in trace {
        write_event(&mut sink, ev)?;
    }
    sink.flush()?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::VarId;
    use crate::synth::pseudo_random;

    #[test]
    fn round_trips_through_text() {
        let trace = pseudo_random(0x4000, 1024, 4, 200, 11, Some(VarId(3)));
        let bytes = write_trace(&trace, Vec::new()).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        let stripped: Trace = trace
            .iter()
            .map(|e| MemAccess { var: None, ..*e })
            .collect();
        assert_eq!(back, stripped);
    }

    #[test]
    fn comments_blanks_and_number_bases_are_accepted() {
        let text = "# header comment\n\nR 0x10 4\nw 32 8\n  # indented comment\nR 0X20 2\n";
        let trace = read_trace(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.get(0).unwrap().addr, 0x10);
        assert!(trace.get(1).unwrap().is_write());
        assert_eq!(trace.get(1).unwrap().addr, 32);
        assert_eq!(trace.get(2).unwrap().addr, 0x20);
    }

    #[test]
    fn malformed_lines_name_the_line_number() {
        for bad in ["X 0x10 4", "R zzz 4", "R 0x10", "R 0x10 4 extra"] {
            let err = read_trace(format!("R 0x0 4\n{bad}\n").as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 2"), "{err}");
        }
    }

    #[test]
    fn messages_do_not_quote_the_input() {
        let err = read_trace("secret-marker\n".as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "line 1: expected access kind 'R' or 'W'");
    }

    #[test]
    fn endless_lines_are_refused_without_buffering_them() {
        let err = read_trace(io::BufReader::new(io::repeat(b'R'))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 1: longer than 4096 bytes");
        // A line exactly at the cap is still read (and then parsed).
        let long = format!("R 0x10 4{}\nR 0x20 4\n", " ".repeat(MAX_LINE_BYTES - 8));
        assert_eq!(read_trace(long.as_bytes()).unwrap().len(), 2);
        let over = format!("R 0x10 4{}\n", " ".repeat(MAX_LINE_BYTES - 7));
        assert!(read_trace(over.as_bytes()).is_err());
    }

    #[test]
    fn crlf_and_unterminated_last_lines_are_accepted() {
        let trace = read_trace("R 0x10 4\r\nW 0x20 8".as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert!(trace.get(1).unwrap().is_write());
    }
}
