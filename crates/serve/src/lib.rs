//! `celeste-serve` — the catalog-service daemon.
//!
//! PR 7's [`CatalogStore`] made the catalog a queryable library
//! value; this crate makes it a *service*: a long-running process
//! that owns a store, optionally keeps ingesting from a live
//! campaign, and answers the full query API over TCP to many
//! concurrent clients. Four layers:
//!
//! - [`wire`] — the `SCQP` v1 length-prefixed little-endian frame
//!   protocol (magic, version, request id, typed payload; hardened
//!   decode in the style of the `SCKP` checkpoint codec).
//! - [`server`] — nonblocking accept loop + a bounded pool of
//!   dedicated handler threads, per-connection timeouts, max-frame
//!   guard, graceful shutdown via `CancelToken`.
//! - [`client`] — [`CatalogClient`], the typed blocking client.
//! - [`snapshot`] + [`evict`] — the `SCST` cell-grouped snapshot
//!   codec (atomic tmp+rename, fingerprint guard) and
//!   [`ServedStore`], which spills cold cells to the snapshot and
//!   faults them back in on demand (LRU by query touch).
//!
//! The one-call entry point is [`CatalogDaemon::start`]; the facade
//! crate wraps it as `Session::serve(addr, ServeConfig)`.
//!
//! [`CatalogStore`]: celeste_store::CatalogStore

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod evict;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use client::CatalogClient;
pub use evict::ServedStore;
pub use server::{CatalogServer, ServerHandle};
pub use snapshot::{Snapshot, SnapshotError, SnapshotFile};
pub use wire::{ErrorFrame, ErrorKind, WireError};

use celeste_store::{StoreConfig, StoreError};
use celeste_survey::catalog::Catalog;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::Arc;

/// Everything a catalog daemon can be tuned on.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Handler threads = maximum concurrently served connections
    /// (further accepted sockets queue until a handler frees up).
    pub max_connections: usize,
    /// Snapshot file: loaded at startup if present (instant restart,
    /// zero refits), rewritten by [`CatalogDaemon::snapshot`] and by an
    /// eviction whose entries it does not already hold bit for bit.
    pub snapshot: Option<PathBuf>,
    /// Max entries kept in memory; 0 = unbounded. Nonzero requires
    /// `snapshot` (evicted cells spill there).
    pub max_resident_entries: usize,
    /// Sizing of the underlying [`celeste_store::CatalogStore`].
    pub store: StoreConfig,
    /// Write a final snapshot during [`CatalogDaemon::shutdown`].
    pub snapshot_on_shutdown: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 64,
            snapshot: None,
            max_resident_entries: 0,
            store: StoreConfig::default(),
            snapshot_on_shutdown: false,
        }
    }
}

/// A remote failure as reported by the server's error frame, with
/// the equivalent local error reconstructed as its source — so
/// `CelesteError::Serve → ServeError::Remote → RemoteError →
/// StoreError::InvalidQuery` chains exactly like the in-process
/// path.
#[derive(Debug)]
pub struct RemoteError {
    /// The error frame as received.
    pub frame: ErrorFrame,
    cause: Option<StoreError>,
}

impl RemoteError {
    /// Wrap a received error frame, reconstructing the typed local
    /// cause where the kind identifies one.
    pub fn new(frame: ErrorFrame) -> RemoteError {
        let cause = match frame.kind {
            ErrorKind::InvalidQuery => Some(StoreError::InvalidQuery(frame.message.clone())),
            _ => None,
        };
        RemoteError { frame, cause }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server reported: {}", self.frame)
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.cause
            .as_ref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Everything that can go wrong serving or querying a catalog over
/// the wire. Every variant chains its cause through
/// [`std::error::Error::source`].
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem I/O failed.
    Io(std::io::Error),
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The snapshot file failed to read, write, or verify.
    Snapshot(SnapshotError),
    /// The store rejected the query locally (client-side validation
    /// or a daemon answering in process).
    Query(StoreError),
    /// The server answered with an error frame.
    Remote(RemoteError),
    /// The peer broke the request/response protocol (wrong id echo,
    /// wrong frame direction, mid-frame hangup).
    Protocol(String),
    /// The daemon configuration is inconsistent.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "catalog service I/O failed: {e}"),
            ServeError::Wire(e) => write!(f, "catalog wire protocol error: {e}"),
            ServeError::Snapshot(e) => write!(f, "catalog snapshot error: {e}"),
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Remote(e) => write!(f, "{e}"),
            ServeError::Protocol(m) => write!(f, "catalog protocol violation: {m}"),
            ServeError::Config(m) => write!(f, "invalid serve configuration: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
            ServeError::Query(e) => Some(e),
            ServeError::Remote(e) => Some(e),
            ServeError::Protocol(_) | ServeError::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Wire(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Snapshot(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Query(e)
    }
}

/// A running catalog daemon: a [`ServedStore`] plus the TCP server
/// answering for it. Keep ingesting through
/// [`CatalogDaemon::store`]`.store()` while it serves.
pub struct CatalogDaemon {
    store: Arc<ServedStore>,
    handle: ServerHandle,
    snapshot_on_shutdown: bool,
}

impl CatalogDaemon {
    /// Open (or restore from snapshot) the served store and start
    /// answering on `addr` (`"127.0.0.1:0"` picks an ephemeral
    /// port — read it back from [`CatalogDaemon::addr`]).
    pub fn start(
        addr: impl ToSocketAddrs,
        config: &ServeConfig,
    ) -> Result<CatalogDaemon, ServeError> {
        if config.snapshot_on_shutdown && config.snapshot.is_none() {
            return Err(ServeError::Config(
                "snapshot_on_shutdown requires a snapshot path".into(),
            ));
        }
        let store = Arc::new(ServedStore::open(
            config.store,
            config.snapshot.clone(),
            config.max_resident_entries,
        )?);
        let handle = CatalogServer::bind(addr, store.clone(), config)?;
        Ok(CatalogDaemon {
            store,
            handle,
            snapshot_on_shutdown: config.snapshot_on_shutdown,
        })
    }

    /// The address the daemon is answering on.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The served store — `store().store()` is the ingest surface a
    /// live campaign writes into.
    pub fn store(&self) -> &Arc<ServedStore> {
        &self.store
    }

    /// The full catalog (resident ∪ spilled), ascending id.
    pub fn catalog(&self) -> Result<Catalog, ServeError> {
        self.store.catalog()
    }

    /// Write a full snapshot now.
    pub fn snapshot(&self) -> Result<(), ServeError> {
        self.store.snapshot()
    }

    /// Stop accepting, drain handlers, and (if configured) write the
    /// final snapshot.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.handle.shutdown();
        if self.snapshot_on_shutdown {
            self.store.snapshot()?;
        }
        Ok(())
    }
}
