//! `SCQP` v1 — the catalog query wire protocol.
//!
//! Frames are length-prefixed little-endian, written with the vendored
//! `bytes` [`BufMut`] API and read through the checked
//! `celeste_survey::codec::Reader` that every binary format shares:
//!
//! ```text
//! on wire:  len u32 | payload (len bytes)
//! payload:  magic "SCQP" | version u16 | request id u64 | kind u8 | body
//! ```
//!
//! Request kinds: 1 = self-describing [`CatalogQuery`] (entries only),
//! 2 = cone-with-separations, 3 = stats, 4 = ping. Response kinds:
//! 0x81 = entries, 0x82 = cone hits, 0x83 = stats, 0x84 = pong,
//! 0xFF = error frame. The request id is echoed verbatim in the
//! response so clients can detect desync.
//!
//! Decoding never panics and never preallocates more than the buffer
//! could possibly hold: the codec `Reader` checks every read, puts
//! each counted body through `checked_mul` and one length check
//! before reserving it, and rejects trailing bytes. Entries use the
//! shared 97-byte layout of `celeste_survey::codec`, so SCST snapshot
//! cells and wire responses are byte-compatible. Malformed input
//! yields a typed [`WireError`], and a server answers it with an
//! [`ErrorFrame`] before dropping the connection.
//!
//! Sky rects are reassembled as struct literals, not via
//! [`SkyRect::new`], whose debug assertion would turn inverted
//! garbage bounds into a panic; an inverted rect is instead a valid
//! value that simply covers no cells.

use bytes::BufMut;
use celeste_store::{CatalogQuery, CatalogStoreStats, CellOccupancy, SourceFilter};
use celeste_survey::catalog::CatalogEntry;
use celeste_survey::codec::{self, put_entry, put_header, CodecError, Reader, Version};
use celeste_survey::skygeom::{CellId, SkyCoord, SkyRect};

pub use celeste_survey::codec::ENTRY_BYTES;

/// Frame magic: every SCQP payload starts with these four bytes.
pub const MAGIC: &[u8; 4] = b"SCQP";
/// Protocol version; peers reject anything else (typed, not silent).
pub const VERSION: u16 = 1;
/// Bytes of payload before the kind-specific body.
pub const HEADER_BYTES: usize = 4 + 2 + 8 + 1;
/// One encoded cone hit: an entry plus its separation.
pub const CONE_HIT_BYTES: usize = ENTRY_BYTES + 8;
/// One encoded [`CellOccupancy`] row in a stats response.
pub const CELL_OCC_BYTES: usize = 1 + 4 + 4 + 4 + 8 + 8;

/// Typed decode/size failures. Never a panic: every malformed,
/// truncated, or oversized frame maps here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload is truncated, has a bad magic/kind/tag, or lies
    /// about a count.
    Malformed(String),
    /// The peer speaks a different SCQP version.
    UnsupportedVersion(u16),
    /// The frame's declared length exceeds the configured ceiling
    /// (checked before any allocation).
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed SCQP frame: {m}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported SCQP version {v} (speaking {VERSION})")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte ceiling")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::UnsupportedVersion(v) => WireError::UnsupportedVersion(v),
            other => WireError::Malformed(other.to_string()),
        }
    }
}

/// What went wrong, as carried by an [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The query failed the store's validation (non-finite center,
    /// negative radius, NaN flux threshold, ...). The connection
    /// stays open — the request was well-framed, just unanswerable.
    InvalidQuery,
    /// The peer's frame did not decode; the connection is dropped
    /// after this frame (framing may be desynced).
    Malformed,
    /// The peer's frame exceeded the size ceiling; dropped likewise.
    FrameTooLarge,
    /// The server failed internally (snapshot I/O, ...).
    Internal,
}

impl ErrorKind {
    fn code(self) -> u8 {
        match self {
            ErrorKind::InvalidQuery => 1,
            ErrorKind::Malformed => 2,
            ErrorKind::FrameTooLarge => 3,
            ErrorKind::Internal => 4,
        }
    }

    fn from_code(c: u8) -> Result<ErrorKind, WireError> {
        match c {
            1 => Ok(ErrorKind::InvalidQuery),
            2 => Ok(ErrorKind::Malformed),
            3 => Ok(ErrorKind::FrameTooLarge),
            4 => Ok(ErrorKind::Internal),
            other => Err(WireError::Malformed(format!(
                "unknown error-frame kind {other}"
            ))),
        }
    }
}

/// A server-to-client error report: the typed kind plus a human
/// message (UTF-8; decoded lossily so a mangled message can't mask
/// the error it describes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ErrorKind::InvalidQuery => "invalid query",
            ErrorKind::Malformed => "malformed frame",
            ErrorKind::FrameTooLarge => "frame too large",
            ErrorKind::Internal => "internal server error",
        };
        write!(f, "{kind}: {}", self.message)
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a self-describing catalog query; answers with entries.
    Query(CatalogQuery),
    /// Cone search answering with per-hit separations (the one query
    /// shape whose full answer [`CatalogQuery`] cannot carry).
    Cone {
        /// Cone axis.
        center: SkyCoord,
        /// Angular radius, arcseconds (inclusive).
        radius_arcsec: f64,
    },
    /// Fetch the store's occupancy/traffic counters.
    Stats,
    /// Liveness probe; answers [`Response::Pong`].
    Ping,
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Entries answering a [`Request::Query`].
    Entries(Vec<CatalogEntry>),
    /// Cone hits with separations answering a [`Request::Cone`].
    Cone(Vec<(CatalogEntry, f64)>),
    /// Counters answering a [`Request::Stats`].
    Stats(CatalogStoreStats),
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// The request could not be answered; see [`ErrorFrame::kind`]
    /// for whether the connection survives.
    Error(ErrorFrame),
}

/// Either side of the conversation, as decoded off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A client-to-server message.
    Request(Request),
    /// A server-to-client message.
    Response(Response),
}

/// One decoded SCQP payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-chosen id, echoed by the server.
    pub request_id: u64,
    /// The message itself.
    pub body: Body,
}

/// One on-wire frame: a length prefix, the payload header, then what
/// `body` writes (`body_bytes` sizes the buffer). The frame is built
/// in one buffer and the prefix patched once the length is known.
fn frame(request_id: u64, kind: u8, body_bytes: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + HEADER_BYTES + body_bytes);
    b.put_u32_le(0);
    put_header(&mut b, MAGIC, Version::U16(VERSION));
    b.put_u64_le(request_id);
    b.put_u8(kind);
    body(&mut b);
    let len = (b.len() - 4) as u32;
    if let Some(prefix) = b.first_chunk_mut::<4>() {
        *prefix = len.to_le_bytes();
    }
    b
}

fn put_cone(b: &mut Vec<u8>, center: &SkyCoord, radius_arcsec: f64) {
    b.put_f64_le(center.ra);
    b.put_f64_le(center.dec);
    b.put_f64_le(radius_arcsec);
}

fn put_rect(b: &mut Vec<u8>, r: &SkyRect) {
    b.put_f64_le(r.ra_min);
    b.put_f64_le(r.ra_max);
    b.put_f64_le(r.dec_min);
    b.put_f64_le(r.dec_max);
}

fn put_filter(b: &mut Vec<u8>, f: &SourceFilter) {
    let mut flags = 0u8;
    if f.source_type.is_some() {
        flags |= 1;
    }
    if f.min_flux.is_some() {
        flags |= 2;
    }
    b.put_u8(flags);
    b.put_u8(f.source_type.map_or(0, codec::source_type_code));
    let (band, min) = f
        .min_flux
        .map_or((0u8, 0.0), |(band, min)| (band.index() as u8, min));
    b.put_u8(band);
    b.put_f64_le(min);
}

/// Encode a request as a full on-wire frame (length prefix included).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    match req {
        Request::Query(q) => frame(request_id, 1, 64, |b| match q {
            CatalogQuery::Cone {
                center,
                radius_arcsec,
            } => {
                b.put_u8(0);
                put_cone(b, center, *radius_arcsec);
            }
            CatalogQuery::Rect { rect, filter } => {
                b.put_u8(1);
                put_rect(b, rect);
                put_filter(b, filter);
            }
            CatalogQuery::BrightestN { n, within } => {
                b.put_u8(2);
                b.put_u32_le((*n).min(u32::MAX as usize) as u32);
                match within {
                    Some(rect) => {
                        b.put_u8(1);
                        put_rect(b, rect);
                    }
                    None => b.put_u8(0),
                }
            }
        }),
        Request::Cone {
            center,
            radius_arcsec,
        } => frame(request_id, 2, 24, |b| put_cone(b, center, *radius_arcsec)),
        Request::Stats => frame(request_id, 3, 0, |_| {}),
        Request::Ping => frame(request_id, 4, 0, |_| {}),
    }
}

/// Encode a response as a full on-wire frame (length prefix included).
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    match resp {
        Response::Entries(entries) => {
            frame(request_id, 0x81, 4 + entries.len() * ENTRY_BYTES, |b| {
                b.put_u32_le(entries.len() as u32);
                for e in entries {
                    put_entry(b, e);
                }
            })
        }
        Response::Cone(hits) => frame(request_id, 0x82, 4 + hits.len() * CONE_HIT_BYTES, |b| {
            b.put_u32_le(hits.len() as u32);
            for (e, sep) in hits {
                put_entry(b, e);
                b.put_f64_le(*sep);
            }
        }),
        Response::Stats(s) => frame(
            request_id,
            0x83,
            6 * 8 + 4 + s.per_cell.len() * CELL_OCC_BYTES,
            |b| {
                for v in [
                    s.entries as u64,
                    s.cells as u64,
                    s.regions_ingested,
                    s.cache_entries as u64,
                    s.cache_hits,
                    s.queries,
                ] {
                    b.put_u64_le(v);
                }
                b.put_u32_le(s.per_cell.len() as u32);
                for o in &s.per_cell {
                    b.put_u8(o.cell.level);
                    b.put_u32_le(o.cell.ix);
                    b.put_u32_le(o.cell.iy);
                    b.put_u32_le(o.entries.min(u32::MAX as usize) as u32);
                    b.put_u64_le(o.touches);
                    b.put_u64_le(o.last_touch);
                }
            },
        ),
        Response::Pong => frame(request_id, 0x84, 0, |_| {}),
        Response::Error(e) => {
            let msg = e.message.as_bytes();
            frame(request_id, 0xFF, 5 + msg.len(), |b| {
                b.put_u8(e.kind.code());
                b.put_u32_le(msg.len() as u32);
                b.put_slice(msg);
            })
        }
    }
}

fn get_coord(r: &mut Reader<'_>) -> Result<SkyCoord, CodecError> {
    Ok(SkyCoord {
        ra: r.f64()?,
        dec: r.f64()?,
    })
}

fn get_rect(r: &mut Reader<'_>) -> Result<SkyRect, CodecError> {
    // Struct literal, NOT SkyRect::new: its debug assertion would
    // panic on inverted garbage bounds; as a plain value an inverted
    // rect just covers no cells and matches nothing.
    Ok(SkyRect {
        ra_min: r.f64()?,
        ra_max: r.f64()?,
        dec_min: r.f64()?,
        dec_max: r.f64()?,
    })
}

fn get_filter(r: &mut Reader<'_>) -> Result<SourceFilter, CodecError> {
    let flags = r.u8()?;
    if flags & !3 != 0 {
        return Err(CodecError::Invalid(format!(
            "unknown filter flags {flags:#04x}"
        )));
    }
    let type_code = r.u8()?;
    let band_code = r.u8()?;
    let min = r.f64()?;
    Ok(SourceFilter {
        source_type: if flags & 1 != 0 {
            Some(codec::source_type(type_code)?)
        } else {
            None
        },
        min_flux: if flags & 2 != 0 {
            Some((codec::band(band_code)?, min))
        } else {
            None
        },
    })
}

fn get_query(r: &mut Reader<'_>) -> Result<CatalogQuery, CodecError> {
    match r.u8()? {
        0 => Ok(CatalogQuery::Cone {
            center: get_coord(r)?,
            radius_arcsec: r.f64()?,
        }),
        1 => Ok(CatalogQuery::Rect {
            rect: get_rect(r)?,
            filter: get_filter(r)?,
        }),
        2 => {
            let n = r.u32()? as usize;
            let within = match r.u8()? {
                0 => None,
                1 => Some(get_rect(r)?),
                other => return Err(CodecError::Invalid(format!("unknown within tag {other}"))),
            };
            Ok(CatalogQuery::BrightestN { n, within })
        }
        other => Err(CodecError::Invalid(format!("unknown query tag {other}"))),
    }
}

/// Decode one SCQP payload (the bytes *after* the length prefix).
pub fn decode_payload(buf: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::open(buf, MAGIC, Version::U16(VERSION))?;
    let request_id = r.u64()?;
    let body = match r.u8()? {
        1 => Body::Request(Request::Query(get_query(&mut r)?)),
        2 => Body::Request(Request::Cone {
            center: get_coord(&mut r)?,
            radius_arcsec: r.f64()?,
        }),
        3 => Body::Request(Request::Stats),
        4 => Body::Request(Request::Ping),
        0x81 => {
            let n = r.u32()? as usize;
            Body::Response(Response::Entries(r.entries(n)?))
        }
        0x82 => {
            let n = r.u32()? as usize;
            let hits = r.items(n, CONE_HIT_BYTES, "cone hits", |r| {
                Ok((r.entry()?, r.f64()?))
            })?;
            Body::Response(Response::Cone(hits))
        }
        0x83 => {
            let mut counters = [0u64; 6];
            for c in &mut counters {
                *c = r.u64()?;
            }
            let n = r.u32()? as usize;
            let per_cell = r.items(n, CELL_OCC_BYTES, "per-cell stats", |r| {
                Ok(CellOccupancy {
                    cell: CellId {
                        level: r.u8()?,
                        ix: r.u32()?,
                        iy: r.u32()?,
                    },
                    entries: r.u32()? as usize,
                    touches: r.u64()?,
                    last_touch: r.u64()?,
                })
            })?;
            Body::Response(Response::Stats(CatalogStoreStats {
                entries: counters[0] as usize,
                cells: counters[1] as usize,
                regions_ingested: counters[2],
                cache_entries: counters[3] as usize,
                cache_hits: counters[4],
                queries: counters[5],
                per_cell,
            }))
        }
        0x84 => Body::Response(Response::Pong),
        0xFF => {
            let kind = ErrorKind::from_code(r.u8()?)?;
            let len = r.u32()? as usize;
            let message = String::from_utf8_lossy(r.bytes(len, "error message")?).into_owned();
            Body::Response(Response::Error(ErrorFrame { kind, message }))
        }
        other => {
            return Err(WireError::Malformed(format!(
                "unknown frame kind {other:#04x}"
            )))
        }
    };
    r.finish()?;
    Ok(Frame { request_id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::Band;
    use celeste_survey::catalog::{GalaxyShape, SourceType};

    fn entry(id: u64) -> CatalogEntry {
        CatalogEntry {
            id,
            pos: SkyCoord::new(
                (id as f64 * 13.7) % 360.0,
                ((id as f64 * 7.3) % 160.0) - 80.0,
            ),
            source_type: if id.is_multiple_of(2) {
                SourceType::Star
            } else {
                SourceType::Galaxy
            },
            flux_r_nmgy: id as f64 * 0.5 - 3.0,
            colors: [0.1, -0.2, 0.3, -0.4],
            shape: GalaxyShape {
                frac_dev: 0.3,
                axis_ratio: 0.7,
                angle_rad: 1.1,
                radius_arcsec: 2.2,
            },
        }
    }

    fn roundtrip(frame: &[u8]) -> Frame {
        let (len, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_le_bytes(len.try_into().unwrap()) as usize,
            payload.len()
        );
        decode_payload(payload).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query(CatalogQuery::Cone {
                center: SkyCoord::new(10.0, -5.0),
                radius_arcsec: 42.0,
            }),
            Request::Query(CatalogQuery::Rect {
                rect: SkyRect::new(0.0, 1.0, -1.0, 1.0),
                filter: SourceFilter {
                    source_type: Some(SourceType::Galaxy),
                    min_flux: Some((Band::Z, 0.25)),
                },
            }),
            Request::Query(CatalogQuery::BrightestN {
                n: 17,
                within: Some(SkyRect::new(5.0, 6.0, 0.0, 2.0)),
            }),
            Request::Query(CatalogQuery::BrightestN { n: 3, within: None }),
            Request::Cone {
                center: SkyCoord::new(359.9, 0.1),
                radius_arcsec: 3600.0,
            },
            Request::Stats,
            Request::Ping,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let frame = roundtrip(&encode_request(i as u64 + 7, req));
            assert_eq!(frame.request_id, i as u64 + 7);
            assert_eq!(frame.body, Body::Request(req.clone()), "request {i}");
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let entries: Vec<CatalogEntry> = (0..9).map(entry).collect();
        let resps = [
            Response::Entries(entries.clone()),
            Response::Cone(
                entries
                    .iter()
                    .map(|e| (e.clone(), e.id as f64 * 0.9))
                    .collect(),
            ),
            Response::Stats(CatalogStoreStats {
                entries: 9,
                cells: 2,
                regions_ingested: 4,
                cache_entries: 3,
                cache_hits: 1,
                queries: 55,
                per_cell: vec![CellOccupancy {
                    cell: CellId {
                        level: 10,
                        ix: 3,
                        iy: 9,
                    },
                    entries: 9,
                    touches: 12,
                    last_touch: 55,
                }],
            }),
            Response::Pong,
            Response::Error(ErrorFrame {
                kind: ErrorKind::InvalidQuery,
                message: "cone radius must be finite".into(),
            }),
        ];
        for resp in &resps {
            let frame = roundtrip(&encode_response(99, resp));
            assert_eq!(frame.request_id, 99);
            match (&frame.body, resp) {
                (Body::Response(Response::Entries(got)), Response::Entries(want)) => {
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.pos.ra.to_bits(), w.pos.ra.to_bits());
                        assert_eq!(g.flux_r_nmgy.to_bits(), w.flux_r_nmgy.to_bits());
                    }
                    assert_eq!(got, want);
                }
                (Body::Response(got), want) => assert_eq!(got, want),
                other => panic!("decoded a request from a response: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        let good = encode_request(1, &Request::Ping);
        let payload = &good[4..];
        assert!(matches!(
            decode_payload(&payload[..payload.len() - 1]),
            Err(WireError::Malformed(_))
        ));
        let mut bad_magic = payload.to_vec();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_payload(&bad_magic),
            Err(WireError::Malformed(_))
        ));
        let mut bad_version = payload.to_vec();
        bad_version[4] = 9;
        assert!(matches!(
            decode_payload(&bad_version),
            Err(WireError::UnsupportedVersion(9))
        ));
        // Trailing garbage after a complete body is rejected, not
        // silently ignored (it would desync framing).
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(matches!(
            decode_payload(&trailing),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn length_lying_counts_are_rejected_without_huge_prealloc() {
        // An Entries response claiming u32::MAX entries but carrying
        // none: must be a typed error, and must not reserve
        // gigabytes first.
        let frame = frame(5, 0x81, 4, |b| b.put_u32_le(u32::MAX));
        let payload = &frame[4..];
        assert!(matches!(
            decode_payload(payload),
            Err(WireError::Malformed(_))
        ));
    }
}
