//! Readiness-driven connection I/O: one thread `poll(2)`s the listener
//! and every connection, so idle connections cost a few hundred bytes
//! of buffer instead of a parked thread each.
//!
//! The reactor owns the **read** side only: it accepts, buffers bytes
//! per connection, splits complete lines, and dispatches them through
//! the same [`handle_line`] the threaded model uses. Responses are
//! written by whichever thread completes them (control replies by the
//! reactor itself, job results by workers) through the shared
//! per-connection writer; the non-blocking flag lives on the file
//! description, so those writers park in `poll(2)` on `WouldBlock`
//! (see `write_all_stream`).
//!
//! ## Drain and exit
//!
//! The listener is dropped as soon as the draining flag is observed —
//! *before* accepting — so the drain poke (or a client racing the
//! shutdown) never becomes a connection and never emits lifecycle
//! events. The thread exits when `Shared::stop` is set (the workers
//! are gone), sweeping every remaining connection through
//! [`disconnect_cleanup`] so each one still gets its `disconnected`
//! event.

use std::io::{self, Read};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minipoll::{PollFd, POLLIN};

use super::{disconnect_cleanup, handle_line, EventBuilder, Shared, SharedWriter};
use crate::net::{Listener, Stream};

/// Poll timeout: the upper bound on how stale the draining/stop flags
/// can get when no I/O happens.
const POLL_TIMEOUT_MS: i32 = 25;

/// Bytes read per `read(2)` call on a ready connection.
const READ_CHUNK: usize = 16 * 1024;

/// A connection that accumulates this much without a newline is not
/// speaking the protocol (or is trying to exhaust memory) and is
/// dropped. Generous: inline formulas and batches are one line each.
const MAX_LINE_BYTES: usize = 256 * 1024 * 1024;

struct Conn {
    id: u64,
    /// The read half. Same file description as the writer clones.
    stream: Stream,
    writer: SharedWriter,
    /// Bytes received but not yet terminated by a newline.
    buf: Vec<u8>,
    /// How much of `buf` is already known to hold no newline: each
    /// `read` appends to the buffer and only the new bytes are searched,
    /// so a line spanning many reads is scanned once, not once per read.
    scanned: usize,
}

/// The reactor thread body. Exits when `shared.stop` is set.
pub(super) fn run(listener: Listener, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        // a listener that cannot be polled gets the threaded model
        super::accept_loop(&listener, shared);
        return;
    }
    let loop_us = obs::metrics::histogram("satverifyd.reactor.loop_us");
    let connections = obs::metrics::gauge("satverifyd.reactor.connections");
    let mut listener = Some(listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn = 0u64;
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            for conn in conns.drain(..) {
                connections.add(-1);
                disconnect_cleanup(shared, conn.id);
            }
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            listener = None;
        }
        fds.clear();
        if let Some(listener) = &listener {
            fds.push(PollFd::new(listener.raw_fd(), POLLIN));
        }
        for conn in &conns {
            fds.push(PollFd::new(conn.stream.raw_fd(), POLLIN));
        }
        let ready = match minipoll::poll(&mut fds, POLL_TIMEOUT_MS) {
            Ok(n) => n,
            // EINTR is retried inside the shim; anything else here is
            // transient fd churn — re-derive the set and try again
            Err(_) => continue,
        };
        if ready == 0 {
            continue;
        }
        let woke = Instant::now();
        // connections accepted below land at the end of `conns` with no
        // pollfd this round; only the first `polled` slots pair with fds
        let polled = conns.len();
        let mut base = 0;
        if let Some(listener) = &listener {
            if fds[0].readable() {
                accept_ready(shared, listener, &mut conns, &mut next_conn, &connections);
            }
            base = 1;
        }
        let mut closed = Vec::new();
        for slot in 0..polled {
            if fds[base + slot].readable() && !service_conn(shared, &mut conns[slot]) {
                closed.push(slot);
            }
        }
        for slot in closed.into_iter().rev() {
            let conn = conns.remove(slot);
            connections.add(-1);
            disconnect_cleanup(shared, conn.id);
        }
        loop_us.record(woke.elapsed().as_micros() as u64);
    }
}

/// Accepts until the listener would block. Connections that land after
/// the drain began (the poke, or a client racing shutdown) are dropped
/// unregistered, exactly like the threaded accept loop.
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &Listener,
    conns: &mut Vec<Conn>,
    next_conn: &mut u64,
    connections: &obs::metrics::Gauge,
) {
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // WouldBlock, or transient accept failure
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else { continue };
        let id = *next_conn;
        *next_conn += 1;
        if let Ok(registry_half) = stream.try_clone() {
            shared.conns.lock().expect("conn registry").insert(id, registry_half);
        }
        shared.emit(EventBuilder::new(shared, "connected", id));
        connections.add(1);
        conns.push(Conn {
            id,
            stream,
            writer: Arc::new(Mutex::new(write_half)),
            buf: Vec::new(),
            scanned: 0,
        });
    }
}

/// Drains a readable connection: reads until `WouldBlock` or EOF,
/// dispatching every complete line. Returns whether the connection
/// stays open.
fn service_conn(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. A final unterminated line is still served, to
                // match BufReader::lines in the threaded model.
                if !conn.buf.is_empty() {
                    let _ = handle_line(shared, conn.id, &conn.buf, &conn.writer);
                    conn.buf.clear();
                }
                return false;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                if !dispatch_lines(shared, conn) {
                    return false;
                }
                if conn.buf.len() > MAX_LINE_BYTES {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    }
}

/// Handles every complete line in the buffer, in place, then drops
/// them from its front. Returns whether the connection stays open (a
/// failed response write closes it).
fn dispatch_lines(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut start = 0;
    while let Some(len) = conn.buf[conn.scanned..].iter().position(|&b| b == b'\n') {
        let end = conn.scanned + len;
        conn.scanned = end + 1;
        let line = &conn.buf[start..end];
        start = end + 1;
        if handle_line(shared, conn.id, line, &conn.writer).is_err() {
            return false;
        }
    }
    conn.buf.drain(..start);
    conn.scanned = conn.buf.len();
    true
}
