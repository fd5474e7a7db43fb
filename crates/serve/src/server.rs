//! The daemon's network face: a blocking-IO accept loop feeding a
//! bounded pool of dedicated connection-handler OS threads.
//!
//! Dedicated threads (not the compute pool) for the same reason PR
//! 8 moved campaign node loops off it: a slow or stalled client must
//! never wedge a fitting pipeline. The listener runs nonblocking and
//! polls the [`CancelToken`] between accepts; handlers poll it
//! between reads (sockets carry a short poll timeout under the
//! per-connection deadline), so shutdown never waits on a silent
//! peer.
//!
//! Error discipline per connection: a well-framed but unanswerable
//! request (query validation) gets an [`ErrorKind::InvalidQuery`]
//! frame and the connection stays open; an undecodable or oversized
//! frame gets its typed error frame and then the connection closes —
//! after garbage, the framing can no longer be trusted.

use crate::evict::ServedStore;
use crate::wire::{
    decode_payload, encode_response, Body, ErrorFrame, ErrorKind, Request, Response, WireError,
};
use crate::{ServeConfig, ServeError};
use celeste_sched::CancelToken;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often blocked accepts/reads re-check the cancel token.
const POLL: Duration = Duration::from_millis(20);

/// Per-connection deadline for reading one full frame (also the idle
/// keep-alive limit between requests).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-connection socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Ceiling on inbound frame payloads; larger frames are refused with
/// a typed error frame before any allocation.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// A running catalog server; dropping it shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    cancel: CancelToken,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock every handler, and join all threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.cancel.cancel();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and runs the SCQP server for a [`ServedStore`].
pub struct CatalogServer;

impl CatalogServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `store` with `config.max_connections` handler threads.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<ServedStore>,
        config: &ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(addr).map_err(ServeError::Io)?;
        listener.set_nonblocking(true).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;
        let cancel = CancelToken::default();
        let (conn_tx, conn_rx) = crossbeam::channel::unbounded::<TcpStream>();

        let workers = (0..config.max_connections.max(1))
            .map(|i| {
                let rx = conn_rx.clone();
                let store = store.clone();
                let cancel = cancel.clone();
                std::thread::Builder::new()
                    .name(format!("celeste-serve-{i}"))
                    .spawn(move || {
                        // Ends when the accept thread drops the last
                        // sender (shutdown) and the queue drains.
                        for sock in rx.iter() {
                            if cancel.is_cancelled() {
                                break;
                            }
                            serve_connection(sock, &store, &cancel);
                        }
                    })
                    .expect("spawn connection handler")
            })
            .collect();

        let accept_cancel = cancel.clone();
        let accept = std::thread::Builder::new()
            .name("celeste-serve-accept".into())
            .spawn(move || {
                // `conn_tx` moves in here: when this loop exits, the
                // channel closes and idle workers drain out.
                while !accept_cancel.is_cancelled() {
                    match listener.accept() {
                        Ok((sock, _peer)) => {
                            if conn_tx.send(sock).is_err() {
                                break;
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::Interrupted =>
                        {
                            std::thread::sleep(POLL);
                        }
                        // Transient accept failures (EMFILE, resets):
                        // back off and keep listening.
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
            .expect("spawn accept loop");

        Ok(ServerHandle {
            addr,
            cancel,
            accept: Some(accept),
            workers,
        })
    }
}

/// How a framed read ended.
enum ReadStatus {
    /// Buffer filled.
    Done,
    /// Peer closed cleanly before the first byte.
    Eof,
    /// Cancelled, timed out, or closed mid-frame: drop the
    /// connection without a response.
    Bail,
}

/// Fill `buf` from `sock`, polling `cancel` between short socket
/// timeouts so shutdown is never blocked on a silent peer, and
/// enforcing `timeout` overall. Partial reads accumulate — a slow
/// peer trickling bytes inside the deadline still frames correctly.
fn read_full(
    sock: &mut TcpStream,
    buf: &mut [u8],
    timeout: Duration,
    cancel: &CancelToken,
) -> ReadStatus {
    let deadline = Instant::now() + timeout;
    let mut filled = 0usize;
    while filled < buf.len() {
        if cancel.is_cancelled() || Instant::now() >= deadline {
            return ReadStatus::Bail;
        }
        match sock.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadStatus::Eof
                } else {
                    ReadStatus::Bail
                }
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ReadStatus::Bail,
        }
    }
    ReadStatus::Done
}

fn send(sock: &mut TcpStream, request_id: u64, resp: &Response) -> bool {
    sock.write_all(&encode_response(request_id, resp)).is_ok()
}

fn error_response(kind: ErrorKind, message: String) -> Response {
    Response::Error(ErrorFrame { kind, message })
}

/// Serve one client until it disconnects, errors, or the server
/// shuts down.
fn serve_connection(mut sock: TcpStream, store: &ServedStore, cancel: &CancelToken) {
    // Blocking socket with a short receive timeout: `read_full`'s
    // cancel/deadline polling depends on reads waking up regularly.
    if sock.set_nonblocking(false).is_err()
        || sock.set_read_timeout(Some(POLL)).is_err()
        || sock.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    sock.set_nodelay(true).ok();
    loop {
        let mut len_bytes = [0u8; 4];
        match read_full(&mut sock, &mut len_bytes, READ_TIMEOUT, cancel) {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::Bail => return,
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_BYTES {
            // Typed refusal, then drop: we will not read `len` bytes,
            // so the stream position is unrecoverable.
            send(
                &mut sock,
                0,
                &error_response(
                    ErrorKind::FrameTooLarge,
                    WireError::FrameTooLarge {
                        len,
                        max: MAX_FRAME_BYTES,
                    }
                    .to_string(),
                ),
            );
            return;
        }
        let mut payload = vec![0u8; len];
        match read_full(&mut sock, &mut payload, READ_TIMEOUT, cancel) {
            ReadStatus::Done => {}
            ReadStatus::Eof | ReadStatus::Bail => return,
        }
        let frame = match decode_payload(&payload) {
            Ok(f) => f,
            Err(e) => {
                // Malformed frame: answer with the typed error, then
                // close — framing may be desynced.
                send(
                    &mut sock,
                    0,
                    &error_response(ErrorKind::Malformed, e.to_string()),
                );
                return;
            }
        };
        let request = match frame.body {
            Body::Request(r) => r,
            Body::Response(_) => {
                send(
                    &mut sock,
                    frame.request_id,
                    &error_response(
                        ErrorKind::Malformed,
                        "peer sent a response frame to the server".into(),
                    ),
                );
                return;
            }
        };
        let response = respond(store, &request);
        if !send(&mut sock, frame.request_id, &response) {
            return;
        }
    }
}

/// Answer one well-framed request. Query-validation failures keep
/// the connection; they are the client's typed error, not a protocol
/// breach.
fn respond(store: &ServedStore, request: &Request) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(store.stats()),
        Request::Query(q) => match store.query(q) {
            Ok(entries) => Response::Entries(entries),
            Err(e) => serve_error_response(e),
        },
        Request::Cone {
            center,
            radius_arcsec,
        } => match store.cone_search(center, *radius_arcsec) {
            Ok(hits) => Response::Cone(hits),
            Err(e) => serve_error_response(e),
        },
    }
}

fn serve_error_response(e: ServeError) -> Response {
    match e {
        ServeError::Query(q) => error_response(ErrorKind::InvalidQuery, q.to_string()),
        other => error_response(ErrorKind::Internal, other.to_string()),
    }
}
