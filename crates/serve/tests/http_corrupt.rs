//! The corrupt-request battery: every way a client can mangle a request —
//! truncation at *every byte boundary*, oversized lines, bad methods, bad
//! `Content-Length`s, premature disconnects, binary garbage — must produce
//! a 4xx/5xx response or a clean connection drop. Never a panic, and the
//! server must keep answering well-formed requests afterwards.
//!
//! These tests talk raw TCP on purpose: the [`serve::client`] module can
//! only *produce* well-formed requests.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use graph_terrain::SharedGraph;
use serve::state::{AppState, ServerConfig};
use serve::{Server, ServerHandle};
use ugraph::GraphBuilder;

/// A small server with a tight read timeout so silent-client tests finish
/// quickly.
fn boot() -> ServerHandle {
    let config = ServerConfig {
        workers: 4,
        read_timeout: Duration::from_millis(300),
        max_body_bytes: 1 << 20,
        ..ServerConfig::default()
    };
    let state = Arc::new(AppState::new(config));
    let mut builder = GraphBuilder::new();
    builder.extend_edges([(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
    state.insert_graph(Some("g".into()), SharedGraph::new(builder.build())).unwrap();
    Server::bind_with_state("127.0.0.1:0", state).expect("bind ephemeral")
}

/// Send raw bytes, half-close the write side, and read whatever comes back.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The peer may 4xx-and-close before consuming everything we send;
    // ignore the resulting EPIPE and still read the response.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let mut parts = text.split(' ');
    if parts.next()?.starts_with("HTTP/1.1") {
        parts.next()?.parse().ok()
    } else {
        None
    }
}

/// The liveness probe every test ends with: the server still answers a
/// well-formed request after the abuse.
fn assert_alive(addr: SocketAddr) {
    let response = serve::client::get(addr, "/healthz").expect("server must still answer");
    assert_eq!(response.status, 200, "server must stay healthy");
}

#[test]
fn every_truncation_prefix_gets_4xx_or_clean_drop_and_server_survives() {
    let server = boot();
    let addr = server.addr();
    let full = b"GET /graphs/g/terrain?measure=kcore HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
    for cut in 0..full.len() {
        let response = send_raw(addr, &full[..cut]);
        if response.is_empty() {
            continue; // clean drop: acceptable for any truncation
        }
        let status =
            status_of(&response).unwrap_or_else(|| panic!("cut={cut}: non-HTTP bytes came back"));
        assert!(
            (400..600).contains(&status),
            "cut={cut}: truncated request must not succeed, got {status}"
        );
    }
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn truncated_post_bodies_are_rejected_not_hung() {
    let server = boot();
    let addr = server.addr();
    // Declares 1000 bytes, sends 10, half-closes: the server must answer
    // (400) rather than hold the worker forever.
    let response =
        send_raw(addr, b"POST /graphs HTTP/1.1\r\nContent-Length: 1000\r\n\r\n0123456789");
    assert_eq!(status_of(&response), Some(400));
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn silent_clients_time_out_without_taking_down_a_worker() {
    let server = boot();
    let addr = server.addr();
    // Open connections that never send a byte; workers must recycle them
    // after the read timeout rather than leak.
    let idlers: Vec<TcpStream> =
        (0..3).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(600)); // > read_timeout
    assert_alive(addr);
    drop(idlers);
    server.shutdown();
}

#[test]
fn a_client_that_never_reads_its_response_releases_the_only_worker() {
    // One worker: while a stuck write holds it, nothing else is served.
    let state = Arc::new(AppState::new(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }));
    // 60 000 vertices, nearly all isolated: every one is a root of the
    // unsimplified render tree, so the JSON terrain is tens of megabytes.
    let mut builder = GraphBuilder::new();
    builder.add_edge(0u32, 1u32);
    builder.ensure_vertex(59_999u32);
    state.insert_graph(Some("wide".into()), SharedGraph::new(builder.build())).unwrap();
    let server = Server::bind_with_state("127.0.0.1:0", state).expect("bind ephemeral");
    let addr = server.addr();
    let target = "/graphs/wide/terrain?budget=none&format=json";

    // Ask for the body, then never read a byte of it. The server's writes
    // fill the loopback socket buffers and block.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    write!(stalled, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();

    // The next request waits for that worker: it is served only because the
    // stuck write times out.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("the second request is served");
    assert_eq!(status_of(&response), Some(200));
    // Larger than the loopback buffers can absorb (on Linux by default, at
    // most 4 MiB of send buffer plus a receive buffer that starts at
    // 128 KiB and grows only as the application reads).
    assert!(response.len() > 16 << 20, "body of {} bytes is too small", response.len());
    drop(stalled);
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn oversized_request_lines_and_headers_are_bounced() {
    let server = boot();
    let addr = server.addr();

    let mut long_target = b"GET /".to_vec();
    long_target.extend(std::iter::repeat(b'a').take(9 * 1024));
    long_target.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&send_raw(addr, &long_target)), Some(414));

    let mut fat_header = b"GET /healthz HTTP/1.1\r\nX-Fat: ".to_vec();
    fat_header.extend(std::iter::repeat(b'b').take(9 * 1024));
    fat_header.extend_from_slice(b"\r\n\r\n");
    assert_eq!(status_of(&send_raw(addr, &fat_header)), Some(431));

    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..100 {
        many_headers.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    assert_eq!(status_of(&send_raw(addr, &many_headers)), Some(431));

    assert_alive(addr);
    server.shutdown();
}

#[test]
fn bad_methods_paths_versions_and_content_lengths_get_typed_statuses() {
    let server = boot();
    let addr = server.addr();
    let cases: Vec<(&[u8], u16)> = vec![
        (b"PUT /graphs/g HTTP/1.1\r\n\r\n" as &[u8], 405),
        (b"BREW /coffee HTTP/1.1\r\n\r\n", 405),
        (b"DELETE /graphs/never-registered HTTP/1.1\r\n\r\n", 404),
        (b"GET /healthz HTTP/9.9\r\n\r\n", 505),
        (b"GET healthz HTTP/1.1\r\n\r\n", 400),
        (b"GET /healthz\r\n\r\n", 400),
        (b"completely not http\r\n\r\n", 400),
        (b"POST /graphs HTTP/1.1\r\n\r\n", 411),
        (b"POST /graphs HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 400),
        (b"POST /graphs HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"POST /graphs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413),
        (b"GET /healthz HTTP/1.1\r\nbroken header line\r\n\r\n", 400),
    ];
    for (raw, expected) in cases {
        let response = send_raw(addr, raw);
        assert_eq!(
            status_of(&response),
            Some(expected),
            "request {:?}",
            String::from_utf8_lossy(raw)
        );
        // Error bodies are structured JSON, like every other error.
        let text = String::from_utf8_lossy(&response);
        let body_start = text.find("\r\n\r\n").expect("header/body separator") + 4;
        serde_json::from_str(&text[body_start..]).expect("error body is JSON");
    }
    assert_alive(addr);
    server.shutdown();
}

#[test]
fn binary_garbage_and_instant_disconnects_never_kill_the_server() {
    let server = boot();
    let addr = server.addr();
    // Garbage of every flavor.
    let garbage: Vec<Vec<u8>> = vec![
        vec![0u8; 256],
        (0..=255u8).collect(),
        b"\xff\xfe\x00\x01GET / HTTP/1.1\r\n\r\n".to_vec(),
        b"\r\n\r\n\r\n".to_vec(),
    ];
    for raw in &garbage {
        let _ = send_raw(addr, raw);
    }
    // Connect-and-vanish, repeatedly.
    for _ in 0..10 {
        let stream = TcpStream::connect(addr).expect("connect");
        drop(stream);
    }
    assert_alive(addr);
    // Dropped/errored connections are accounted, not hidden: between the
    // garbage and the vanishing clients, *something* must have registered.
    let state = server.state();
    let dropped = state.dropped_connections.load(std::sync::atomic::Ordering::Relaxed);
    let errors = state.error_responses.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        dropped + errors > 0,
        "abuse must show up in the counters (dropped={dropped}, errors={errors})"
    );
    server.shutdown();
}
