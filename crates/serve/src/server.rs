//! The TCP front: an accept loop feeding a bounded pool of worker threads.
//!
//! Deliberately `std`-only — `TcpListener::accept` on a dedicated thread, a
//! `sync_channel` as the bounded hand-off queue, and N workers each owning
//! one connection at a time (connection-per-request; every response closes).
//! Backpressure is the channel bound: when all workers are busy and the
//! queue is full, the accept thread blocks and the kernel's listen backlog
//! absorbs the burst.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] raises a flag and
//! pokes the listener with a loopback connect so `accept` wakes up,
//! observes the flag, and drops the sender — each worker drains the queue
//! and exits on the channel's disconnect. Dropping the handle shuts down
//! too, so tests cannot leak servers.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::{io, thread};

use crate::error::http_error_response;
use crate::http::read_request;
use crate::routes;
use crate::state::{AppState, ServerConfig};

/// Constructors for a running server.
pub struct Server;

impl Server {
    /// Bind and start serving with fresh [`AppState`]. `addr` may use port
    /// 0 for an ephemeral port; the bound address is on the handle.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::bind_with_state(addr, Arc::new(AppState::new(config)))
    }

    /// Bind and start serving over pre-built state (tests pre-register
    /// graphs this way).
    pub fn bind_with_state(
        addr: impl ToSocketAddrs,
        state: Arc<AppState>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let (sender, receiver) = sync_channel::<TcpStream>(state.config.pending_connections.max(1));
        let receiver = Arc::new(Mutex::new(receiver));

        let workers: Vec<JoinHandle<()>> = (0..state.config.workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let state = Arc::clone(&state);
                thread::Builder::new()
                    .name(format!("terrain-worker-{i}"))
                    .spawn(move || worker_loop(&state, &receiver))
                    .expect("spawn worker thread")
            })
            .collect();

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            thread::Builder::new()
                .name("terrain-accept".to_string())
                .spawn(move || {
                    // `sender` moves in here; dropping it on exit disconnects
                    // the workers.
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match stream {
                            Ok(stream) => {
                                if sender.send(stream).is_err() {
                                    break;
                                }
                            }
                            // Transient accept errors (aborted handshakes,
                            // fd pressure) must not kill the server.
                            Err(_) => continue,
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(ServerHandle {
            addr: local_addr,
            state,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

fn worker_loop(state: &AppState, receiver: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the receiver lock only for the dequeue, never during a
        // request.
        let stream = match receiver.lock().expect("worker queue lock").recv() {
            Ok(stream) => stream,
            Err(_) => return, // sender dropped: shutdown
        };
        handle_connection(state, stream);
    }
}

/// One connection end to end: parse, dispatch, respond, close. Any socket
/// failure on the way out is the peer's problem — never this thread's.
fn handle_connection(state: &AppState, stream: TcpStream) {
    state.in_flight.fetch_add(1, Ordering::SeqCst);
    // One timeout for both directions: a peer that stops sending, or stops
    // reading its response, releases the worker after it.
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let _ = stream.set_nodelay(true);

    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            state.dropped_connections.fetch_add(1, Ordering::Relaxed);
            state.in_flight.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    });
    let response = match read_request(&mut reader, state.config.max_body_bytes) {
        Ok(request) => Some(routes::handle(state, &request)),
        Err(e) => http_error_response(&e),
    };
    match response {
        Some(response) => {
            if response.status >= 400 {
                state.error_responses.fetch_add(1, Ordering::Relaxed);
            }
            state.requests_served.fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(&stream);
            // The peer may have vanished; writing is best-effort.
            let _ = response.write_to(&mut writer).and_then(|()| writer.flush());
        }
        None => {
            state.dropped_connections.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    state.in_flight.fetch_sub(1, Ordering::SeqCst);
}

/// A running server: its bound address, its state, and the threads behind
/// it. Dropping the handle stops the server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests read counters and pre-register graphs).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Stop accepting, drain queued connections, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}
