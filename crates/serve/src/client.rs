//! A minimal blocking client for the serve protocol.
//!
//! One document per line in each direction; see the crate docs for the frame shapes.
//! The CLI's `ccache serve --connect` mode and the test suite are both built on this.

use ccache_json::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking NDJSON connection to a serve instance.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sets the client-side read timeout for [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request frame (the document, compact-rendered, plus `\n`).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, doc: &Json) -> io::Result<()> {
        let mut text = doc.compact();
        text.push('\n');
        self.writer.write_all(text.as_bytes())
    }

    /// Sends raw bytes exactly as given — the protocol-robustness tests use this to
    /// deliver malformed, truncated and unterminated frames.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Receives one raw reply line (without the newline); `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Propagates read failures (including a client-side read timeout).
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Receives one reply document; `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Read failures, plus `InvalidData` if the server sends an unparsable line.
    pub fn recv(&mut self) -> io::Result<Option<Json>> {
        match self.recv_line()? {
            None => Ok(None),
            Some(line) => Json::parse(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Sends `doc` and returns the final reply, discarding any `event` frames
    /// streamed before it.
    ///
    /// # Errors
    ///
    /// Transport failures, plus `UnexpectedEof` if the server closes before replying.
    pub fn request(&mut self, doc: &Json) -> io::Result<Json> {
        Ok(self.request_streaming(doc)?.1)
    }

    /// Sends `doc` and collects `(event frames, final reply)`.
    ///
    /// # Errors
    ///
    /// Transport failures, plus `UnexpectedEof` if the server closes before replying.
    pub fn request_streaming(&mut self, doc: &Json) -> io::Result<(Vec<Json>, Json)> {
        self.send(doc)?;
        let mut events = Vec::new();
        loop {
            match self.recv()? {
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "the server closed before replying",
                    ))
                }
                Some(frame) if frame.get("event").is_some() => events.push(frame),
                Some(frame) => return Ok((events, frame)),
            }
        }
    }
}
