//! Transport abstraction: the daemon speaks the same protocol over TCP
//! and (on Unix) Unix-domain sockets.
//!
//! An [`Endpoint`] names where the server listens or a client connects:
//! `tcp:HOST:PORT` (the `tcp:` prefix is optional) or `unix:PATH`.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A server or client address: TCP socket address or Unix socket path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address in `host:port` form (port `0` asks the OS to pick).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// A TCP endpoint.
    #[must_use]
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint::Tcp(addr.into())
    }

    /// A Unix-socket endpoint.
    #[cfg(unix)]
    #[must_use]
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// Parses `tcp:HOST:PORT`, `unix:PATH`, or bare `HOST:PORT`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unsupported forms.
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(addr) = text.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        if let Some(path) = text.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Endpoint::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(format!("unix sockets are unsupported here: {path}"));
        }
        if text.contains(':') {
            Ok(Endpoint::Tcp(text.to_string()))
        } else {
            Err(format!(
                "bad endpoint {text:?}: expected tcp:HOST:PORT, \
                 unix:PATH, or HOST:PORT"
            ))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A bound listener for either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // a stale socket file from a previous run would make
                // bind fail with AddrInUse even though nobody listens
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    /// The endpoint actually bound (TCP port 0 resolves to a real port).
    pub(crate) fn local_endpoint(&self) -> io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::other("unix listener has no pathname")
                })?;
                Ok(Endpoint::Unix(path.to_path_buf()))
            }
        }
    }

    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // Nagle + delayed ACK stalls pipelined request bursts by
                // ~40ms; responses are single small writes, so coalescing
                // buys nothing here.
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }

    /// Switches the listener between blocking and readiness-driven
    /// accepts (the reactor polls it alongside the connections).
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The raw fd, for `poll(2)` registration.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

/// A connected stream for either transport.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying connect failure.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                // see Listener::accept: small request lines must not sit
                // in the send buffer waiting for a delayed ACK
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// Reads `\n`-terminated lines until EOF or a read error, handing
    /// each to `each` as raw bytes without its newline (a final
    /// unterminated line included); stops early when `each` fails.
    /// Bytes are not decoded here — see [`crate::protocol::Request::from_wire`].
    pub(crate) fn for_each_line(self, mut each: impl FnMut(&[u8]) -> io::Result<()>) {
        let mut reader = BufReader::new(self);
        let mut line = Vec::new();
        loop {
            line.clear();
            match reader.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if each(line.strip_suffix(b"\n").unwrap_or(&line)).is_err() {
                return;
            }
        }
    }

    /// A second handle to the same connection (for a reader/writer split).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    /// Shuts down both directions, unblocking any reader.
    pub(crate) fn shutdown_both(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Shuts down only the write half (half-close: responses can still
    /// be read after signalling end-of-requests).
    pub fn shutdown_write(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Write);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Write);
            }
        }
    }

    /// Switches the connection between blocking and non-blocking I/O.
    /// The flag lives on the file description, so it is shared with
    /// every [`Stream::try_clone`] of this connection.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Caps how long a blocking `read` may wait (`None` = forever).
    /// The router's health prober uses this so a wedged backend cannot
    /// hang the probe loop.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// The raw fd, for `poll(2)` registration.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> i32 {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Blocks until the connection is writable or `timeout` elapses.
    /// Returns whether it became writable. Used by the reactor's write
    /// path when a non-blocking send fills the socket buffer.
    pub(crate) fn wait_writable(&self, timeout: Duration) -> io::Result<bool> {
        #[cfg(unix)]
        {
            let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
            minipoll::wait_writable(self.raw_fd(), ms)
        }
        #[cfg(not(unix))]
        {
            // non-unix streams stay blocking, so writes never need this
            let _ = timeout;
            Ok(true)
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tcp_forms() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:4000"),
            Ok(Endpoint::Tcp("127.0.0.1:4000".into()))
        );
        assert_eq!(
            Endpoint::parse("tcp:localhost:0"),
            Ok(Endpoint::Tcp("localhost:0".into()))
        );
    }

    #[cfg(unix)]
    #[test]
    fn parses_unix_form() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/satverifyd.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/satverifyd.sock")))
        );
    }

    #[test]
    fn rejects_portless_garbage() {
        assert!(Endpoint::parse("nonsense").is_err());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for text in ["tcp:127.0.0.1:80", "unix:/tmp/x.sock"] {
            let ep = Endpoint::parse(text).expect("parse");
            assert_eq!(Endpoint::parse(&ep.to_string()), Ok(ep));
        }
    }
}
