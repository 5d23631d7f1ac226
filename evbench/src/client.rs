//! The benchmark's own framed-protocol client: newline-terminated text
//! frames over TCP. Deliberately not the server crate's codec, so a codec
//! bug cannot cancel itself out between the two ends.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The writing half: buffers frames until `flush`.
pub struct Writer {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Writer {
    pub fn frame(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
    }

    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// The reading half: blocks for whole lines.
pub struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the undelivered bytes in `buf`.
    head: usize,
}

impl Reader {
    /// Hand every complete line received to `on_line`, blocking up to the
    /// read timeout for more. `Ok(false)`: the peer closed the connection.
    pub fn read_lines(&mut self, mut on_line: impl FnMut(&str)) -> io::Result<bool> {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let mut chunk = [0u8; 64 * 1024];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                0
            }
            Err(e) => return Err(e),
        };
        self.buf.extend_from_slice(&chunk[..n]);
        while let Some(len) = self.buf[self.head..].iter().position(|&b| b == b'\n') {
            let line = &self.buf[self.head..self.head + len];
            on_line(std::str::from_utf8(line).unwrap_or("<not utf-8>"));
            self.head += len + 1;
        }
        Ok(true)
    }

    /// Block until one line arrives.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut got = None;
        // A burst may carry several lines; setup traffic is strictly
        // request-reply, so the first is the only one.
        while got.is_none() {
            if !self.read_lines(|l| {
                got.get_or_insert_with(|| l.to_string());
            })? {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(got.expect("loop exits with a line"))
    }
}

/// Connect and split into halves. Reads time out every 20 ms so reader
/// threads can notice a stop flag.
pub fn connect(addr: SocketAddr) -> io::Result<(Writer, Reader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let read_half = stream.try_clone()?;
    Ok((
        Writer {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        },
        Reader {
            stream: read_half,
            buf: Vec::with_capacity(64 * 1024),
            head: 0,
        },
    ))
}

/// One synchronous request-reply exchange (setup traffic).
pub fn call(w: &mut Writer, r: &mut Reader, line: &str) -> io::Result<String> {
    w.frame(line);
    w.flush()?;
    r.read_line()
}
