//! Requests larger than the pipe capacity are read whole and answered
//! well inside the idle timeout, alone and pipelined: past its in-buffer
//! cap a loop goes on reading while the buffer starts with an unfinished
//! request, and a turn whose reading stopped short re-queues its
//! connection, since the bytes left in the pipe raise no new mark.

use bytes::BytesMut;
use om_common::config::BackendKind;
use om_http::{EventConfig, HttpServer, MarketplaceGateway, Method, ParserConfig, ServerOptions};
use om_marketplace::{EventualPlatform, PlatformKind, PlatformSpec};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A seller name three times the default 64 KiB pipe capacity, and well
/// under the parser's 1 MiB body limit.
const NAME_BYTES: usize = 200_000;

/// Well inside the default 30 s idle timeout, which a request left
/// unread waits out before its 408.
const PROMPT: Duration = Duration::from_secs(5);

fn gateway() -> Arc<MarketplaceGateway> {
    Arc::new(MarketplaceGateway::new(Arc::new(EventualPlatform::new(
        &PlatformSpec::new(PlatformKind::Eventual, BackendKind::Eventual),
    ))))
}

fn server() -> HttpServer {
    HttpServer::start_event_driven(gateway(), EventConfig::default())
}

/// Reads one response off a raw connection.
fn read_response(conn: &om_http::Connection, inbuf: &mut BytesMut) -> om_http::Response {
    loop {
        if let Some(resp) = om_http::parse_response(inbuf, &ParserConfig::default()).unwrap() {
            return resp;
        }
        assert!(conn.read_into(inbuf), "EOF before a response");
    }
}

fn seller(id: u64) -> serde_json::Value {
    json!({
        "id": id,
        "name": "n".repeat(NAME_BYTES),
        "city": "copenhagen",
        "order_entry_count": 0,
        "delivered_package_count": 0,
        "revenue": 0,
    })
}

#[test]
fn a_request_larger_than_the_pipe_is_read_whole() {
    let server = server();
    let mut client = server.connect();
    let started = Instant::now();
    let resp = client
        .request(Method::Post, "/ingest/sellers", Some(&seller(1)))
        .unwrap();
    assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
    assert!(
        started.elapsed() < PROMPT,
        "answered after {:?}",
        started.elapsed()
    );
    client.close();
    server.shutdown();
}

#[test]
fn pipelined_requests_larger_than_the_pipe_are_each_answered() {
    let server = server();
    let conn = Arc::new(server.connect_raw());
    let mut wire = Vec::new();
    for id in 1..=2 {
        let body = serde_json::to_vec(&seller(id)).unwrap();
        wire.extend_from_slice(
            format!(
                "POST /ingest/sellers HTTP/1.1\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(&body);
    }
    // The writer parks on the full client→server pipe while the loop
    // reads; the responses come back on this thread.
    let writer = {
        let conn = conn.clone();
        std::thread::spawn(move || conn.send(&wire))
    };

    let mut inbuf = BytesMut::new();
    let mut since = Instant::now();
    for n in 1..=2 {
        let resp = read_response(&conn, &mut inbuf);
        assert_eq!(
            resp.status,
            201,
            "response {n}: {}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(
            since.elapsed() < PROMPT,
            "response {n} after {:?}",
            since.elapsed()
        );
        since = Instant::now();
    }
    writer.join().unwrap();
    conn.close();
    server.shutdown();
}

#[test]
fn a_chunked_request_whose_framing_outgrows_the_limits_is_answered_408() {
    const LIMIT: usize = 1024;
    let server = HttpServer::start_with_options(
        gateway(),
        ServerOptions {
            parser: ParserConfig {
                max_head_bytes: LIMIT,
                max_body_bytes: LIMIT,
                ..ParserConfig::default()
            },
            idle_timeout: Duration::from_millis(200),
            event: EventConfig {
                workers: 1,
                pipe_capacity: LIMIT,
                ..EventConfig::default()
            },
        },
    );
    let conn = Arc::new(server.connect_raw());
    // A chunk-size line that never ends: no parser limit trips, so the
    // loop stops reading at the head and body limits plus one pipe.
    let mut wire =
        b"POST /ingest/sellers HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n1;".to_vec();
    wire.resize(wire.len() + 4 * LIMIT, b'x');
    let writer = {
        let conn = conn.clone();
        std::thread::spawn(move || conn.send(&wire))
    };

    let started = Instant::now();
    let resp = read_response(&conn, &mut BytesMut::new());
    assert_eq!(resp.status, 408, "{}", String::from_utf8_lossy(&resp.body));
    assert!(
        started.elapsed() < PROMPT,
        "answered after {:?}",
        started.elapsed()
    );
    writer.join().unwrap();
    let stats = server.stats();
    assert_eq!(stats.timeouts_408, 1);
    assert!(
        stats.max_conn_buffer_bytes < 3 * LIMIT, // head and body limits, plus one pipe
        "the in-buffer held {} bytes",
        stats.max_conn_buffer_bytes
    );
    server.shutdown();
}
