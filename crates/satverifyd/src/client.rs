//! A blocking line-protocol client for `satverifyd`.
//!
//! One connection carries any number of requests; responses arrive in
//! completion order, each tagged with the submitting request's `id`, so
//! a caller pipelining several `verify` requests matches responses by
//! id, not position.

use std::io::{self, BufRead, BufReader, Write};
use std::time::Duration;

use crate::net::{Endpoint, Stream};
use crate::protocol::{Request, Response};

/// How [`Client::connect_with_retry`] paces reconnection attempts:
/// capped exponential backoff with jitter. A daemon that is restarting
/// or still binding its socket refuses connections for a moment; a
/// client that gives up on the first `ECONNREFUSED` turns that blip
/// into a spurious failure.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total connection attempts (including the first). `1` disables
    /// retrying.
    pub attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling on the per-retry delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that tries exactly once.
    #[must_use]
    pub fn no_retry() -> Self {
        RetryPolicy { attempts: 1, ..RetryPolicy::default() }
    }
}

/// Whether a connect error is the transient kind retrying can fix
/// (daemon restarting, listen backlog full) rather than a permanent
/// one (bad address, permission denied).
fn is_transient(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// Scales `delay` by a pseudo-random factor in [0.5, 1.0] so a fleet
/// of clients retrying against one recovering daemon does not stampede
/// in lockstep. Seeded from the process id and the monotonic-ish clock;
/// cryptographic quality is beside the point here.
fn jittered(delay: Duration) -> Duration {
    let seed = std::process::id() as u64 ^ {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64)
    };
    // one xorshift round is plenty to decorrelate pids
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let factor = 0.5 + (x % 1024) as f64 / 2048.0;
    delay.mul_f64(factor)
}

/// A connected client (see module docs).
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let stream = Stream::connect(endpoint)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { writer: stream, reader })
    }

    /// Connects to a daemon, retrying transient failures (connection
    /// refused/reset/aborted) under `policy`'s capped exponential
    /// backoff with jitter. Non-transient errors are returned
    /// immediately.
    ///
    /// # Errors
    ///
    /// The last connect failure once the attempt budget is spent, or
    /// the first non-transient failure.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        policy: &RetryPolicy,
    ) -> io::Result<Client> {
        let mut delay = policy.base_delay;
        let mut last_error = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(jittered(delay));
                delay = (delay * 2).min(policy.max_delay);
            }
            match Client::connect(endpoint) {
                Ok(client) => return Ok(client),
                Err(e) if is_transient(&e) => last_error = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_error.unwrap_or_else(|| {
            io::Error::other("no connection attempts made")
        }))
    }

    /// Sends one request line without waiting for a response — use for
    /// pipelining, paired with [`Client::recv`].
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.writer.write_all(request.to_wire().as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next response line, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closed the connection, or
    /// `InvalidData` naming the parse failure on a malformed line.
    pub fn recv(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        Response::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one request and waits for the next response. Only sound
    /// when no other requests are in flight on this connection (a
    /// pipelined caller would receive *their* response here).
    ///
    /// # Errors
    ///
    /// Any [`Client::send`] or [`Client::recv`] failure.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Half-closes the write side: the server sees EOF (and cancels
    /// this client's queued and running jobs) while `self` can still
    /// read any responses already in flight.
    pub fn finish_sending(&mut self) {
        self.writer.shutdown_write();
    }
}
