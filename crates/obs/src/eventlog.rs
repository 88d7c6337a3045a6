//! A buffered JSONL (one JSON document per line) event-log writer.
//!
//! Structured access logs — the daemon's job-lifecycle trail, long-run
//! progress events — want an append-only, machine-readable format that
//! survives process crashes line-by-line. JSONL is that format: each
//! line is a complete [`Json`] document, so a truncated final line (a
//! crash mid-write) costs exactly one event, and `grep`/`jq`-style
//! tooling works without a framing parser.
//!
//! [`EventLog`] serialises whole lines under one mutex, so events from
//! concurrent threads interleave at line granularity, never mid-line.
//! Writes are buffered; call [`EventLog::flush`] at quiescence points
//! (drain, shutdown) — dropping the log also flushes, even when a
//! panicking thread poisoned the mutex, and a process-wide panic hook
//! best-effort-flushes every live log before the unwind proceeds (so
//! the tail of the trail survives a crash, which is exactly when it is
//! most needed).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, TryLockError, Weak};

use crate::json::Json;

type Sink = Mutex<BufWriter<Box<dyn Write + Send>>>;

/// Every live log's sink, weakly held so drops are not delayed. The
/// first registration installs a panic hook (chaining the previous
/// one) that flushes whatever is still alive.
static LIVE_LOGS: OnceLock<Mutex<Vec<Weak<Sink>>>> = OnceLock::new();

fn register(sink: &Arc<Sink>) {
    let registry = LIVE_LOGS.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush_all_live();
            previous(info);
        }));
        Mutex::new(Vec::new())
    });
    let mut live = registry.lock().unwrap_or_else(|e| e.into_inner());
    live.retain(|weak| weak.strong_count() > 0);
    live.push(Arc::downgrade(sink));
}

/// Flushes every live log without blocking: a log whose mutex is held
/// by another thread is skipped (its lines flush on drop), and one
/// poisoned by the panicking thread itself is flushed through the
/// poison — the buffered lines were complete before the panic.
fn flush_all_live() {
    let Some(registry) = LIVE_LOGS.get() else { return };
    let live = registry.lock().unwrap_or_else(|e| e.into_inner());
    for weak in live.iter() {
        let Some(sink) = weak.upgrade() else { continue };
        match sink.try_lock() {
            Ok(mut guard) => {
                let _ = guard.flush();
            }
            Err(TryLockError::Poisoned(e)) => {
                let _ = e.into_inner().flush();
            }
            Err(TryLockError::WouldBlock) => {}
        };
    }
}

/// A thread-safe, buffered JSONL writer (see module docs).
pub struct EventLog {
    sink: Arc<Sink>,
}

impl EventLog {
    /// Creates (truncating) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create(path: &Path) -> io::Result<EventLog> {
        Ok(EventLog::from_writer(Box::new(File::create(path)?)))
    }

    /// Wraps an arbitrary sink — for tests and in-memory capture.
    #[must_use]
    pub fn from_writer(sink: Box<dyn Write + Send>) -> EventLog {
        let sink = Arc::new(Mutex::new(BufWriter::new(sink)));
        register(&sink);
        EventLog { sink }
    }

    /// Appends one event as a compact JSON line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure.
    pub fn append(&self, event: &Json) -> io::Result<()> {
        let line = event.to_compact_line();
        debug_assert_eq!(line.find('\n'), Some(line.len() - 1), "compact JSON is one line");
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.write_all(line.as_bytes())
    }

    /// Flushes buffered lines to the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the underlying flush failure.
    pub fn flush(&self) -> io::Result<()> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner()).flush()
    }
}

impl Drop for EventLog {
    fn drop(&mut self) {
        // flush through poison too: a panic elsewhere left the buffer
        // intact (lines are appended whole), and dropping the last
        // buffered events is precisely the tail loss this guards
        // against
        let _ = self.sink.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// Parses a JSONL document back into its events, skipping blank lines.
///
/// # Errors
///
/// The first malformed line's error, prefixed with its 1-based line
/// number.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            crate::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Vec<u8> sink shared with the test through an Arc<Mutex<..>>.
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("sink").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_roundtrip_line_by_line() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = EventLog::from_writer(Box::new(Shared(Arc::clone(&buf))));
        let events = vec![
            Json::object_from([("event", Json::from("started")), ("job", Json::from(1u64))]),
            Json::object_from([("event", Json::from("done")), ("ok", Json::Bool(true))]),
        ];
        for e in &events {
            log.append(e).expect("append");
        }
        log.flush().expect("flush");
        let text = String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert_eq!(parse_lines(&text).expect("parse"), events);
    }

    #[test]
    fn drop_flushes_buffered_lines() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        {
            let log = EventLog::from_writer(Box::new(Shared(Arc::clone(&buf))));
            log.append(&Json::object_from([("k", Json::from(7u64))])).expect("append");
            // no explicit flush — the line may still sit in the buffer
        }
        let text = String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        assert_eq!(text, "{\"k\":7}\n");
    }

    #[test]
    fn embedded_newlines_are_escaped_not_literal() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = EventLog::from_writer(Box::new(Shared(Arc::clone(&buf))));
        log.append(&Json::object_from([("msg", Json::from("a\nb"))])).expect("append");
        log.flush().expect("flush");
        let text = String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        assert_eq!(text.lines().count(), 1, "escaped, not a literal newline");
        assert_eq!(parse_lines(&text).expect("parse").len(), 1);
    }

    #[test]
    fn file_backed_log_writes_jsonl() {
        let mut path = std::env::temp_dir();
        path.push(format!("obs-eventlog-{}.jsonl", std::process::id()));
        {
            let log = EventLog::create(&path).expect("create");
            for i in 0..3u64 {
                log.append(&Json::object_from([("seq", Json::from(i))])).expect("append");
            }
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let events = parse_lines(&text).expect("parse");
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("seq").and_then(Json::as_int), Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn drop_flushes_even_after_a_poisoning_panic() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        {
            let log = Arc::new(EventLog::from_writer(Box::new(Shared(
                Arc::clone(&buf),
            ))));
            log.append(&Json::object_from([("k", Json::from(1u64))]))
                .expect("append");
            // poison the sink mutex from another thread
            let poisoner = Arc::clone(&log);
            let _ = std::thread::spawn(move || {
                let _guard =
                    poisoner.sink.lock().expect("first lock succeeds");
                panic!("poison the event-log mutex");
            })
            .join();
        }
        let text =
            String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        assert_eq!(text, "{\"k\":1}\n", "drop must flush through poison");
    }

    #[test]
    fn panic_hook_flushes_live_logs_before_unwind() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = EventLog::from_writer(Box::new(Shared(Arc::clone(&buf))));
        log.append(&Json::object_from([("k", Json::from(2u64))]))
            .expect("append");
        // keep the log alive across the panic: only the hook can have
        // flushed it when we read the sink below
        let _ = std::thread::spawn(|| panic!("trip the panic hook")).join();
        let text =
            String::from_utf8(buf.lock().expect("sink").clone()).expect("utf8");
        assert_eq!(text, "{\"k\":2}\n", "panic hook must flush live logs");
        drop(log);
    }

    #[test]
    fn parse_lines_names_the_bad_line() {
        let err = parse_lines("{\"ok\":1}\nnot json\n").expect_err("malformed");
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
