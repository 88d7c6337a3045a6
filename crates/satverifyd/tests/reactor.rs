//! I/O-model tests: the readiness-driven reactor holds a thousand idle
//! connections on a bounded thread count, and where there is no
//! reactor the thread-per-connection model is fully functional.

use satverifyd::{
    Client, Endpoint, Request, Response, Server, ServerConfig, VerifyRequest,
};

const XOR_SQUARE: &str = "p cnf 2 4\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n";
const XOR_PROOF: &str = "2 0\n-2 0\n0\n";

fn verify_job(id: &str) -> Request {
    Request::Verify(VerifyRequest {
        id: Some(id.to_string()),
        formula: Some(XOR_SQUARE.to_string()),
        proof: Some(XOR_PROOF.to_string()),
        ..VerifyRequest::default()
    })
}

/// The thread-per-connection model (the platform default off unix)
/// round-trips jobs and control requests.
#[cfg(not(unix))]
#[test]
fn threaded_model_round_trips() {
    let config = ServerConfig::default().workers(1);
    let handle = Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind");
    let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
    assert!(matches!(client.request(&Request::Ping).expect("ping"), Response::Pong));
    match client.request(&verify_job("t-0")).expect("verify") {
        Response::Result(r) => assert_eq!(r.outcome, "verified"),
        other => panic!("expected a result, got {other:?}"),
    }
    drop(client);
    handle.shutdown();
    handle.join();
}

/// Threads currently alive in this process, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// A thousand idle connections cost the reactor a poll set, not a
/// thousand parked threads — and the server still answers through any
/// of them afterwards.
#[cfg(target_os = "linux")]
#[test]
fn reactor_holds_a_thousand_idle_connections_with_bounded_threads() {
    minipoll::raise_nofile_limit(4096).expect("raise nofile limit");
    let handle =
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), ServerConfig::default().workers(2))
            .expect("bind");
    let endpoint = handle.local_endpoint();

    let mut idle = Vec::with_capacity(1000);
    for i in 0..1000 {
        match Client::connect(&endpoint) {
            Ok(client) => idle.push(client),
            Err(e) => panic!("connect {i}: {e}"),
        }
    }
    // the accept backlog may still hold some: prove all 1000 are
    // serviced by round-tripping through the last one accepted
    let last = idle.last_mut().expect("clients");
    assert!(matches!(last.request(&Request::Ping).expect("ping"), Response::Pong));

    let threads = thread_count();
    assert!(
        threads < 64,
        "idle connections must not cost threads: {threads} alive with \
         1000 connections open"
    );

    // the server still verifies under the full poll set
    match idle[0].request(&verify_job("soak-0")).expect("verify") {
        Response::Result(r) => assert_eq!(r.outcome, "verified"),
        other => panic!("expected a result, got {other:?}"),
    }

    drop(idle);
    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------------------
// Line framing, against a real reactor server over a raw socket.

#[cfg(unix)]
mod framing {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};

    use proofver::Harness;
    use satverifyd::{
        job, Client, Endpoint, ErrorCode, JobResult, Request, Response, Server,
        ServerConfig, ServerHandle, VerifyRequest,
    };

    use super::verify_job;

    fn cached_server() -> ServerHandle {
        let config = ServerConfig::default().workers(2).cache_enabled(true);
        Server::bind(&Endpoint::tcp("127.0.0.1:0"), config).expect("bind")
    }

    /// A raw connection: requests are written as bytes, exactly as
    /// given, so the test controls where lines and writes split.
    fn raw(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let Endpoint::Tcp(addr) = handle.local_endpoint() else {
            panic!("tcp endpoint expected");
        };
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection before answering");
        Response::parse(line.trim_end()).expect("response parses")
    }

    fn result_of(response: Response) -> JobResult {
        match response {
            Response::Result(r) => r,
            other => panic!("expected a result, got {other:?}"),
        }
    }

    fn line(request: &Request) -> String {
        format!("{}\n", request.to_line())
    }

    /// A php(5) refutation whose formula carries enough comment lines
    /// to put the request line past 2 MB. The comments are dense in
    /// the characters the JSON codec escapes and in multi-byte scalars.
    fn big_inline_job(id: &str) -> VerifyRequest {
        let php = cnfgen::pigeonhole(5);
        let run = match satverify::solve_and_verify(&php, cdcl::SolverConfig::default())
            .expect("solve php(5)")
        {
            satverify::PipelineOutcome::Unsat(run) => run,
            satverify::PipelineOutcome::Sat(_) => panic!("php(5) is UNSAT"),
        };
        let mut formula = String::new();
        for i in 0..40_000 {
            formula.push_str(&format!(
                "c pad {i:06} \"quoted\" back\\slash\ttab p\u{e4}iv\u{e4} \u{1f600} {{}}[]\n"
            ));
        }
        let mut dimacs = Vec::new();
        cnf::write_dimacs(&mut dimacs, &php).expect("write dimacs");
        formula.push_str(std::str::from_utf8(&dimacs).expect("utf8"));
        let mut proof = Vec::new();
        proofver::write_proof(&mut proof, &run.proof).expect("write proof");
        VerifyRequest {
            id: Some(id.to_string()),
            formula: Some(formula),
            proof: Some(String::from_utf8(proof).expect("utf8")),
            ..VerifyRequest::default()
        }
    }

    /// A request line far longer than one read chunk is framed whole:
    /// its verdict is the one `job::execute` gives in-process, and the
    /// cache-served resubmission answers the same apart from `id` and
    /// `latency_ms`.
    #[test]
    fn multi_megabyte_inline_job_matches_in_process_verdict_and_its_cache_hit() {
        let handle = cached_server();
        let request = big_inline_job("big-0");
        let wire = line(&Request::Verify(request.clone()));
        assert!(wire.len() >= 2 * 1024 * 1024, "line is {} bytes", wire.len());
        let expected = job::execute(&request, &Harness::default()).expect("in-process");
        assert_eq!(expected.outcome, "verified");

        let (mut stream, mut reader) = raw(&handle);
        stream.write_all(wire.as_bytes()).expect("send");
        let mut fresh = result_of(read_response(&mut reader));
        assert!(fresh.latency_ms.is_some());
        fresh.latency_ms = None;
        assert_eq!(fresh, expected);

        let resubmit = VerifyRequest { id: Some("big-1".into()), ..request };
        stream
            .write_all(line(&Request::Verify(resubmit)).as_bytes())
            .expect("resend");
        let mut hit = result_of(read_response(&mut reader));
        assert_eq!(hit.id.as_deref(), Some("big-1"));
        hit.id = fresh.id.clone();
        hit.latency_ms = None;
        assert_eq!(hit, fresh);

        let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected stats");
        };
        assert_eq!(stats.counter("cache_hits"), Some(1));
        drop((stream, reader, client));
        handle.shutdown();
        handle.join();
    }

    /// Three requests in one `write` are three lines, all answered.
    #[test]
    fn three_pipelined_requests_in_one_write_are_all_answered() {
        let handle = cached_server();
        let (mut stream, mut reader) = raw(&handle);
        let burst = format!(
            "{}{}{}",
            line(&verify_job("p-0")),
            line(&Request::Ping),
            line(&verify_job("p-2")),
        );
        stream.write_all(burst.as_bytes()).expect("send");
        let mut ids = Vec::new();
        let mut pongs = 0;
        for _ in 0..3 {
            match read_response(&mut reader) {
                Response::Pong => pongs += 1,
                Response::Result(r) => {
                    assert_eq!(r.outcome, "verified");
                    ids.push(r.id.expect("id"));
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        ids.sort();
        assert_eq!((pongs, ids), (1, vec!["p-0".to_string(), "p-2".to_string()]));
        drop((stream, reader));
        handle.shutdown();
        handle.join();
    }

    /// A CRLF line ending is stripped before the line is parsed.
    #[test]
    fn crlf_terminated_requests_are_served() {
        let handle = cached_server();
        let (mut stream, mut reader) = raw(&handle);
        stream.write_all(b"{\"op\":\"ping\"}\r\n").expect("send ping");
        assert_eq!(read_response(&mut reader), Response::Pong);
        let crlf = format!("{}\r\n", verify_job("crlf").to_line());
        stream.write_all(crlf.as_bytes()).expect("send verify");
        let r = result_of(read_response(&mut reader));
        assert_eq!((r.id.as_deref(), r.outcome.as_str()), (Some("crlf"), "verified"));
        drop((stream, reader));
        handle.shutdown();
        handle.join();
    }

    /// A final line without its newline, followed by EOF, is still
    /// served: a control request, and a verify the cache can answer
    /// before the disconnect cancels the connection's jobs.
    #[test]
    fn unterminated_final_line_before_eof_is_answered() {
        let handle = cached_server();
        let (mut stream, mut reader) = raw(&handle);
        stream.write_all(b"{\"op\":\"ping\"}").expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(read_response(&mut reader), Response::Pong);

        // warm the cache, then resubmit unterminated and hang up
        let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
        let warm = result_of(client.request(&verify_job("warm")).expect("warm"));
        assert_eq!(warm.outcome, "verified");
        let (mut stream, mut reader) = raw(&handle);
        stream
            .write_all(verify_job("tail").to_line().as_bytes())
            .expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let r = result_of(read_response(&mut reader));
        assert_eq!((r.id.as_deref(), r.outcome.as_str()), (Some("tail"), "verified"));
        drop((stream, reader, client));
        handle.shutdown();
        handle.join();
    }

    /// Bytes that are not UTF-8 are a bad request naming the offset of
    /// the first invalid byte, and the connection stays open.
    #[test]
    fn invalid_utf8_is_a_bad_request_and_the_connection_survives() {
        let handle = cached_server();
        let (mut stream, mut reader) = raw(&handle);
        let good = verify_job("utf8").to_line();
        let at = good.find("utf8").expect("id in line") + 2;
        let mut bad = good.into_bytes();
        bad[at] = 0xFF;
        bad.push(b'\n');
        stream.write_all(&bad).expect("send");
        match read_response(&mut reader) {
            Response::Error { code: ErrorCode::BadRequest, id: None, message } => {
                assert!(
                    message.contains(&format!("byte {at}")),
                    "message names the offset {at}: {message}"
                );
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
        // an unterminated invalid final line is refused the same way
        stream.write_all(b"{\"op\":\"ping\"}\n").expect("send ping");
        assert_eq!(read_response(&mut reader), Response::Pong);
        stream.write_all(b"{\"op\":\"pi\xC3ng\"}").expect("send");
        stream.shutdown(Shutdown::Write).expect("half-close");
        match read_response(&mut reader) {
            Response::Error { code: ErrorCode::BadRequest, message, .. } => {
                assert!(message.contains("byte 9"), "{message}");
            }
            other => panic!("expected bad-request, got {other:?}"),
        }
        // nothing was verified or cached from the invalid bytes
        let mut client = Client::connect(&handle.local_endpoint()).expect("connect");
        let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
            panic!("expected stats");
        };
        assert_eq!(stats.counter("submitted"), Some(0));
        drop((stream, reader, client));
        handle.shutdown();
        handle.join();
    }
}
