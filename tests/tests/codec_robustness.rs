//! Decode-robustness properties for every binary format in the
//! workspace — SIMG images, SCAT catalogs, SCKP checkpoints, SCQP
//! wire payloads and SCST snapshots — run by one format-parameterised
//! harness. Truncated, bit-flipped, length-lying and arbitrary-garbage
//! inputs must come back as each format's typed error (or, for flips
//! that land in a payload, a structurally bounded `Ok`): never a
//! panic, never a read past the buffer, never an attacker-sized
//! preallocation. Each format gets the same properties, in a module
//! named after it. The indexed partial SCST read (the eviction
//! fault-in, `SnapshotFile`) gets its own module: a file truncated,
//! bit-flipped or given a cell header that disagrees with its index
//! after indexing reads back as a typed error or the cell's entries as
//! they are on disk.

use std::sync::Arc;

use celeste::serve::wire::{
    decode_payload, encode_request, encode_response, Body, ErrorFrame, ErrorKind, Request,
    Response, WireError, HEADER_BYTES,
};
use celeste::serve::{Snapshot, SnapshotError};
use celeste::{CatalogQuery, CatalogStoreStats, CellOccupancy, SourceFilter};
use celeste_core::{SourceParams, NUM_PARAMS};
use celeste_sched::checkpoint::{Checkpoint, CheckpointError};
use celeste_sched::fault::mix64;
use celeste_sched::runtime::RegionStats;
use celeste_sched::{RegionProvenance, RegionResult};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::codec::ENTRY_BYTES;
use celeste_survey::image::Image;
use celeste_survey::io::{decode_catalog, decode_image, encode_catalog, encode_image, IoError};
use celeste_survey::psf::{Psf, PsfComponent};
use celeste_survey::skygeom::{CellId, FieldId, SkyCoord, SkyRect};
use celeste_survey::wcs::Wcs;
use proptest::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn sample_entry(seed: u64) -> CatalogEntry {
    let h = mix64(seed);
    CatalogEntry {
        id: h % 4096,
        pos: SkyCoord::new((h % 360) as f64 + 0.25, ((h % 160) as f64 / 2.0) - 40.0),
        source_type: if h.is_multiple_of(2) {
            SourceType::Star
        } else {
            SourceType::Galaxy
        },
        flux_r_nmgy: (h % 1000) as f64 * 0.03,
        colors: [0.1, -0.2, 0.3, (h % 7) as f64 * 0.1],
        shape: GalaxyShape {
            frac_dev: (h % 10) as f64 / 10.0,
            axis_ratio: 0.5,
            angle_rad: 1.0,
            radius_arcsec: 2.0 + (h % 5) as f64,
        },
    }
}

/// A deterministic but irregular valid image: `seed` varies the size
/// (empty included), the PSF component count and every value.
fn sample_image(seed: u64) -> Image {
    let h = mix64(seed);
    let (width, height) = ((h % 9) as usize, ((h >> 8) % 7) as usize);
    Image {
        field: FieldId {
            run: (h >> 16) as u32,
            camcol: (h % 6) as u16 + 1,
            field: (h >> 48) as u16,
        },
        band: Band::ALL[(h % 5) as usize],
        wcs: Wcs {
            sky0: SkyCoord::new((h % 360) as f64, (h % 120) as f64 / 2.0 - 30.0),
            pix0: [(h % 64) as f64, 0.5],
            jac: [[2500.0, (h % 3) as f64 * 1e-3], [-1e-3, 2500.0]],
        },
        width,
        height,
        pixels: (0..(width * height) as u64)
            .map(|i| (mix64(h ^ i) % 10_000) as f32 * 0.25)
            .collect(),
        sky_level: (h % 200) as f64,
        nmgy_to_counts: 300.0,
        psf: Arc::new(Psf {
            components: (0..h % 4)
                .map(|k| PsfComponent {
                    weight: 1.0 / (k + 1) as f64,
                    sigma_px: 1.0 + k as f64,
                })
                .collect(),
        }),
    }
}

fn sample_catalog(seed: u64) -> Catalog {
    let h = mix64(seed);
    Catalog::new((0..h % 6).map(|i| sample_entry(h ^ (i << 8))).collect())
}

/// A deterministic but irregular valid checkpoint: `seed` varies the
/// region count, per-region source counts, and provenance key counts.
fn sample_checkpoint(seed: u64) -> Checkpoint {
    let n_regions = (mix64(seed) % 4) + 1;
    let completed = (0..n_regions)
        .map(|r| {
            let h = mix64(seed ^ (r + 1));
            RegionResult {
                task_id: h,
                stage: (h % 2) as u8,
                node: (h % 5) as usize,
                sources: (0..h % 3)
                    .map(|i| {
                        let mut params = [0.0; NUM_PARAMS];
                        for (j, p) in params.iter_mut().enumerate() {
                            *p = f64::from_bits(mix64(h ^ (i << 8) ^ j as u64));
                        }
                        SourceParams {
                            id: h ^ i,
                            base_pos: SkyCoord::new(
                                (h % 360) as f64,
                                (h % 120) as f64 / 2.0 - 30.0,
                            ),
                            params,
                        }
                    })
                    .collect(),
                stats: RegionStats {
                    passes: 1,
                    batches: 2,
                    fits: (h % 100) as usize,
                    newton_iters: 17,
                    conflict_edges: 3,
                    active_pixels: 4096,
                    graph_builds: 1,
                    active_pixel_visits: 0,
                },
                provenance: RegionProvenance {
                    image_keys: (0..h % 4)
                        .map(|k| {
                            (
                                FieldId {
                                    run: (h >> 8) as u32,
                                    camcol: (k + 1) as u16,
                                    field: k as u16,
                                },
                                Band::ALL[(k % 5) as usize],
                            )
                        })
                        .collect(),
                    config_hash: mix64(h),
                },
            }
        })
        .collect();
    Checkpoint {
        fingerprint: mix64(seed ^ 0xF1),
        completed,
    }
}

/// A valid SCQP payload (the bytes after the length prefix) of one of
/// the ten message shapes (`shape` 0–5 requests, 6–9 responses), with
/// `h` picking the body sizes.
fn payload_of(shape: u64, h: u64) -> Vec<u8> {
    let rect = SkyRect::new(
        (h % 100) as f64,
        (h % 100) as f64 + 5.0,
        -10.0,
        (h % 40) as f64,
    );
    let entries: Vec<CatalogEntry> = (0..h % 5).map(|i| sample_entry(h ^ i)).collect();
    let frame = match shape {
        0 => encode_request(
            h,
            &Request::Query(CatalogQuery::Cone {
                center: SkyCoord::new((h % 360) as f64, 0.0),
                radius_arcsec: (h % 7200) as f64,
            }),
        ),
        1 => encode_request(
            h,
            &Request::Query(CatalogQuery::Rect {
                rect,
                filter: SourceFilter {
                    source_type: (h.is_multiple_of(3)).then_some(SourceType::Galaxy),
                    min_flux: (h % 3 == 1).then_some((Band::ALL[(h % 5) as usize], 0.5)),
                },
            }),
        ),
        2 => encode_request(
            h,
            &Request::Query(CatalogQuery::BrightestN {
                n: (h % 64) as usize,
                within: (h.is_multiple_of(2)).then_some(rect),
            }),
        ),
        3 => encode_request(
            h,
            &Request::Cone {
                center: SkyCoord::new(1.0, 2.0),
                radius_arcsec: 60.0,
            },
        ),
        4 => encode_request(h, &Request::Stats),
        5 => encode_request(h, &Request::Ping),
        6 => encode_response(h, &Response::Entries(entries)),
        7 => encode_response(
            h,
            &Response::Cone(entries.into_iter().map(|e| (e, 0.5)).collect()),
        ),
        8 => encode_response(
            h,
            &Response::Stats(CatalogStoreStats {
                entries: (h % 100) as usize,
                cells: (h % 10) as usize,
                regions_ingested: h % 50,
                cache_entries: 3,
                cache_hits: 1,
                queries: h % 1000,
                per_cell: (0..h % 4)
                    .map(|i| CellOccupancy {
                        cell: CellId {
                            level: 10,
                            ix: i as u32,
                            iy: (h % 7) as u32,
                        },
                        entries: (h % 30) as usize,
                        touches: h % 13,
                        last_touch: h % 1000,
                    })
                    .collect(),
            }),
        ),
        _ => encode_response(
            h,
            &Response::Error(ErrorFrame {
                kind: match h % 4 {
                    0 => ErrorKind::InvalidQuery,
                    1 => ErrorKind::Malformed,
                    2 => ErrorKind::FrameTooLarge,
                    _ => ErrorKind::Internal,
                },
                message: "x".repeat((h % 40) as usize),
            }),
        ),
    };
    frame[4..].to_vec()
}

fn sample_snapshot(seed: u64) -> Snapshot {
    let h = mix64(seed);
    let n = h % 40 + 1;
    Snapshot::of_entries((0..n).map(|i| sample_entry(h ^ (i << 8))).collect(), 10)
}

const U32_MAX: &[u8] = &u32::MAX.to_le_bytes();

/// The formats under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fmt {
    Simg,
    Scat,
    Sckp,
    Scqp,
    Scst,
}

/// A successful decode, reduced to what the properties compare.
#[derive(Debug)]
struct Decoded {
    /// The decoded value encoded again.
    bytes: Vec<u8>,
    /// Variable-count items decoded (pixels, entries, regions, ...).
    items: usize,
    /// Hash of the catalog content (SCST) or of `bytes` (the rest).
    content: u64,
}

/// How a decode came out, by the format's own error variants.
#[derive(Debug)]
enum Outcome {
    Ok(Decoded),
    /// The format's structural error (`Format` / `Malformed`).
    Malformed(String),
    /// A typed rejection of well-formed bytes: an SCQP version this
    /// build does not speak, an SCST fingerprint mismatch.
    Rejected,
    /// Any other error variant: never expected from a decoder.
    Unexpected(String),
}

fn ok(bytes: Vec<u8>, items: usize) -> Outcome {
    let content = fnv1a(&bytes);
    Outcome::Ok(Decoded {
        bytes,
        items,
        content,
    })
}

impl Fmt {
    /// Magic + version: a valid header with nothing behind it.
    fn header(self) -> &'static [u8] {
        match self {
            Fmt::Simg => b"SIMG\x01",
            Fmt::Scat => b"SCAT\x01",
            Fmt::Sckp => b"SCKP\x02\x00",
            Fmt::Scqp => b"SCQP\x01\x00",
            Fmt::Scst => b"SCST\x01\x00",
        }
    }

    /// A deterministic but irregular valid encoding.
    fn sample(self, seed: u64) -> Vec<u8> {
        match self {
            Fmt::Simg => encode_image(&sample_image(seed)).to_vec(),
            Fmt::Scat => encode_catalog(&sample_catalog(seed)).to_vec(),
            Fmt::Sckp => sample_checkpoint(seed).encode(),
            Fmt::Scqp => {
                let h = mix64(seed);
                payload_of(h % 10, h)
            }
            Fmt::Scst => sample_snapshot(seed).encode(),
        }
    }

    /// Whether the format carries a content checksum, so a flip that
    /// still decodes must leave the content unchanged.
    fn checksummed(self) -> bool {
        self == Fmt::Scst
    }

    fn decode(self, bytes: &[u8]) -> Outcome {
        match self {
            Fmt::Simg => match decode_image(bytes) {
                Ok(img) => ok(
                    encode_image(&img).to_vec(),
                    img.pixels.len() + img.psf.components.len(),
                ),
                Err(IoError::Format(m)) => Outcome::Malformed(m),
                Err(e) => Outcome::Unexpected(e.to_string()),
            },
            Fmt::Scat => match decode_catalog(bytes) {
                Ok(cat) => ok(encode_catalog(&cat).to_vec(), cat.len()),
                Err(IoError::Format(m)) => Outcome::Malformed(m),
                Err(e) => Outcome::Unexpected(e.to_string()),
            },
            Fmt::Sckp => match Checkpoint::decode(bytes) {
                Ok(ckpt) => ok(ckpt.encode(), ckpt.completed.len()),
                Err(CheckpointError::Malformed(m)) => Outcome::Malformed(m),
                Err(e) => Outcome::Unexpected(e.to_string()),
            },
            Fmt::Scqp => match decode_payload(bytes) {
                Ok(frame) => {
                    let (encoded, items) = match &frame.body {
                        Body::Request(req) => (encode_request(frame.request_id, req), 0),
                        Body::Response(resp) => (
                            encode_response(frame.request_id, resp),
                            match resp {
                                Response::Entries(es) => es.len(),
                                Response::Cone(hits) => hits.len(),
                                Response::Stats(s) => s.per_cell.len(),
                                Response::Error(e) => e.message.len(),
                                Response::Pong => 0,
                            },
                        ),
                    };
                    ok(encoded[4..].to_vec(), items)
                }
                Err(WireError::Malformed(m)) => Outcome::Malformed(m),
                Err(WireError::UnsupportedVersion(_)) => Outcome::Rejected,
                Err(e) => Outcome::Unexpected(e.to_string()),
            },
            Fmt::Scst => match Snapshot::decode(bytes) {
                Ok(snap) => {
                    let entries = snap.entries();
                    Outcome::Ok(Decoded {
                        bytes: snap.encode(),
                        items: entries.len(),
                        content: fnv1a(&encode_catalog(&Catalog::new(entries))),
                    })
                }
                Err(SnapshotError::Malformed(m)) => Outcome::Malformed(m),
                Err(SnapshotError::FingerprintMismatch { .. }) => Outcome::Rejected,
                Err(e) => Outcome::Unexpected(e.to_string()),
            },
        }
    }

    /// Count fields to lie about: `(valid encoding, offset, lie)`.
    fn count_fields(self) -> Vec<(Vec<u8>, usize, &'static [u8])> {
        match self {
            // width, height (u32 at 14, 18), both at once — 2^31 ×
            // 2^31 pixels of 4 bytes wraps a `usize` to exactly 0 —
            // and the PSF count (u8 at 102).
            Fmt::Simg => {
                let img = self.sample(7);
                vec![
                    (img.clone(), 14, U32_MAX),
                    (img.clone(), 18, U32_MAX),
                    (img.clone(), 14, &[0, 0, 0, 0x80, 0, 0, 0, 0x80]),
                    (img, 102, &[0xFF]),
                ]
            }
            // Entry count after magic 4 + version 1.
            Fmt::Scat => vec![(self.sample(7), 5, U32_MAX)],
            // n_regions at 14 (magic 4 + version 2 + fp 8); the first
            // region's n_sources at 18 + 8 + 1 + 4 = 31 and its n_keys
            // after its sources, 7 stats and config hash.
            Fmt::Sckp => {
                let ckpt = sample_checkpoint(7);
                let source_bytes = 8 + 16 + NUM_PARAMS * 8;
                let n_keys_at = 35 + ckpt.completed[0].sources.len() * source_bytes + 56 + 8;
                let bytes = ckpt.encode();
                vec![
                    (bytes.clone(), 14, U32_MAX),
                    (bytes.clone(), 31, U32_MAX),
                    (bytes, n_keys_at, U32_MAX),
                ]
            }
            // Entry and hit counts right after the header; the cell
            // count after six u64 counters; the error message length
            // after the error kind.
            Fmt::Scqp => vec![
                (payload_of(6, 3), HEADER_BYTES, U32_MAX),
                (payload_of(7, 3), HEADER_BYTES, U32_MAX),
                (payload_of(8, 3), HEADER_BYTES + 48, U32_MAX),
                (payload_of(9, 3), HEADER_BYTES + 1, U32_MAX),
            ],
            // n_cells at 15 (magic 4 + version 2 + fp 8 + level 1), the
            // first cell's n_entries at 19 + 9 = 28.
            Fmt::Scst => {
                let bytes = self.sample(7);
                vec![(bytes.clone(), 15, U32_MAX), (bytes, 28, U32_MAX)]
            }
        }
    }
}

/// Every strict prefix of a valid encoding is a typed Malformed
/// error: the formats carry explicit counts, so running out of bytes
/// early is always detectable (and must never over-read).
fn truncation_is_a_typed_error(fmt: Fmt, seed: u64, frac: f64) {
    let bytes = fmt.sample(seed);
    let cut = ((bytes.len() - 1) as f64 * frac) as usize;
    let outcome = fmt.decode(&bytes[..cut]);
    assert!(
        matches!(outcome, Outcome::Malformed(_)),
        "{fmt:?}: truncation to {cut}/{} bytes must be Malformed, got {outcome:?}",
        bytes.len()
    );
}

/// Flipping any single bit never panics: the result is a typed error
/// or a decode whose size is bounded by the original (lied counts
/// cannot inflate the output — every reservation is capped by the
/// bytes present), and a checksummed format that still decodes
/// carries exactly the original content.
fn single_bit_flip_never_panics(fmt: Fmt, seed: u64, pos: f64, bit: u32) {
    let mut bytes = fmt.sample(seed);
    let Outcome::Ok(original) = fmt.decode(&bytes) else {
        panic!("{fmt:?}: sample {seed} must decode");
    };
    let idx = ((bytes.len() - 1) as f64 * pos) as usize;
    bytes[idx] ^= 1 << bit;
    match fmt.decode(&bytes) {
        Outcome::Malformed(_) | Outcome::Rejected => {}
        Outcome::Unexpected(e) => panic!("{fmt:?}: unexpected error variant: {e}"),
        Outcome::Ok(decoded) => {
            assert!(
                decoded.items <= original.items.max(1) * 8 + 8,
                "{fmt:?}: decoded {} items from a 1-bit corruption of {}",
                decoded.items,
                original.items
            );
            if fmt.checksummed() {
                assert_eq!(
                    decoded.content, original.content,
                    "{fmt:?}: a flip that verifies must preserve the content"
                );
            }
        }
    }
}

/// A valid encoding followed by anything more is a typed Malformed
/// error: a complete value must end where its bytes end.
fn trailing_bytes_are_rejected(fmt: Fmt, seed: u64, tail: Vec<u32>) {
    let mut bytes = fmt.sample(seed);
    bytes.extend(tail.into_iter().map(|b| b as u8));
    let outcome = fmt.decode(&bytes);
    assert!(
        matches!(outcome, Outcome::Malformed(_)),
        "{fmt:?}: trailing bytes must be Malformed, got {outcome:?}"
    );
}

/// Arbitrary bytes behind `prefix` never panic and never decode to an
/// unexpected error variant.
fn garbage_never_panics(fmt: Fmt, prefix: &[u8], bytes: Vec<u32>) {
    let mut buf = prefix.to_vec();
    buf.extend(bytes.into_iter().map(|b| b as u8));
    if let Outcome::Unexpected(e) = fmt.decode(&buf) {
        panic!("{fmt:?}: unexpected error variant: {e}");
    }
}

/// Each count field overwritten with a lie is rejected as truncated
/// or overflowing, before any attacker-sized reservation.
fn length_lying_counts_are_rejected(fmt: Fmt) {
    for (bytes, at, count) in fmt.count_fields() {
        let mut lie = bytes;
        lie[at..at + count.len()].copy_from_slice(count);
        match fmt.decode(&lie) {
            Outcome::Malformed(msg) => assert!(
                msg.contains("truncated") || msg.contains("overflow"),
                "{fmt:?}: lying count at {at}: unexpected message {msg}"
            ),
            other => panic!("{fmt:?}: lying count at {at} must be Malformed, got {other:?}"),
        }
    }
}

/// The valid samples the mutation properties start from must decode
/// and re-encode to the same bytes, or the properties are vacuous.
fn samples_round_trip(fmt: Fmt) {
    for seed in 0..32 {
        let bytes = fmt.sample(seed);
        match fmt.decode(&bytes) {
            Outcome::Ok(decoded) => assert_eq!(decoded.bytes, bytes, "{fmt:?}: sample {seed}"),
            other => panic!("{fmt:?}: sample {seed} must decode, got {other:?}"),
        }
    }
}

macro_rules! codec_properties {
    ($($module:ident: $fmt:expr;)*) => {$(
        mod $module {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(256))]

                #[test]
                fn truncation_is_a_typed_error(seed in 0u64..1_000_000, frac in 0.0..1.0f64) {
                    super::truncation_is_a_typed_error($fmt, seed, frac);
                }

                #[test]
                fn single_bit_flip_never_panics(
                    seed in 0u64..1_000_000, pos in 0.0..1.0f64, bit in 0u32..8
                ) {
                    super::single_bit_flip_never_panics($fmt, seed, pos, bit);
                }

                #[test]
                fn trailing_bytes_are_rejected(
                    seed in 0u64..1_000_000, tail in prop::collection::vec(0u32..256, 1..16)
                ) {
                    super::trailing_bytes_are_rejected($fmt, seed, tail);
                }

                #[test]
                fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(0u32..256, 0..256)) {
                    garbage_never_panics($fmt, &[], bytes);
                }

                #[test]
                fn garbage_with_valid_header_never_panics(
                    bytes in prop::collection::vec(0u32..256, 0..256)
                ) {
                    garbage_never_panics($fmt, $fmt.header(), bytes);
                }
            }

            #[test]
            fn length_lying_counts_are_rejected() {
                super::length_lying_counts_are_rejected($fmt);
            }

            #[test]
            fn samples_round_trip() {
                super::samples_round_trip($fmt);
            }
        }
    )*};
}

codec_properties! {
    simg: Fmt::Simg;
    scat: Fmt::Scat;
    sckp: Fmt::Sckp;
    scqp: Fmt::Scqp;
    scst: Fmt::Scst;
}

/// The indexed partial read of an SCST file changed on disk after it
/// was indexed.
mod scst_indexed {
    use super::*;
    use celeste::serve::SnapshotFile;
    use celeste_survey::codec::put_entry;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Bytes before the first cell, and in each cell's header.
    const HEADER: usize = 19;
    const CELL_HEADER: usize = 13;

    /// A sample snapshot written to its own file and indexed, the
    /// file's bytes, and each cell's header offset.
    struct Indexed {
        dir: PathBuf,
        path: PathBuf,
        snap: Snapshot,
        file: SnapshotFile,
        bytes: Vec<u8>,
        offsets: Vec<usize>,
    }

    impl Indexed {
        fn new(seed: u64) -> Indexed {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "celeste-scst-indexed-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("cat.scst");
            let snap = sample_snapshot(seed);
            let file = SnapshotFile::save(&path, &snap).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let mut offsets = Vec::new();
            let mut at = HEADER;
            for (_, entries) in &snap.cells {
                offsets.push(at);
                at += CELL_HEADER + entries.len() * ENTRY_BYTES;
            }
            assert_eq!(at, bytes.len(), "offsets must tile the file");
            Indexed {
                dir,
                path,
                snap,
                file,
                bytes,
                offsets,
            }
        }

        /// Replace the file's content in place (same inode, so the
        /// open handle sees it).
        fn overwrite(&self, bytes: &[u8]) {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .truncate(true)
                .open(&self.path)
                .unwrap();
            f.write_all(bytes).unwrap();
        }

        /// Read every cell alone. Each read is a typed error or the
        /// cell's entries, which then encode to the original cell's
        /// bytes but for the returned count of flipped bits. Returns
        /// (cells that errored, bits differing in total).
        fn read_each(&self) -> (usize, u32) {
            let (mut errors, mut flipped) = (0, 0);
            for (cell, entries) in &self.snap.cells {
                match self.file.read_cells([cell]) {
                    Ok(got) => {
                        assert_eq!(got.len(), entries.len(), "cell {cell:?} changed size");
                        flipped += bits(&got)
                            .iter()
                            .zip(bits(entries))
                            .map(|(a, b)| (a ^ b).count_ones())
                            .sum::<u32>();
                    }
                    Err(SnapshotError::Malformed(_) | SnapshotError::Io(_)) => errors += 1,
                    Err(e) => panic!("unexpected error variant: {e}"),
                }
            }
            (errors, flipped)
        }
    }

    impl Drop for Indexed {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    fn bits(entries: &[CatalogEntry]) -> Vec<u8> {
        let mut b = Vec::new();
        for e in entries {
            put_entry(&mut b, e);
        }
        b
    }

    /// A file cut short after indexing: every cell wholly before the
    /// cut reads back exactly, the cells past it are typed errors.
    fn truncation(seed: u64, frac: f64) {
        let ix = Indexed::new(seed);
        let cut = ((ix.bytes.len() - 1) as f64 * frac) as usize;
        ix.overwrite(&ix.bytes[..cut]);
        let (errors, flipped) = ix.read_each();
        let past = ix
            .offsets
            .iter()
            .zip(&ix.snap.cells)
            .filter(|(&at, (_, es))| at + CELL_HEADER + es.len() * ENTRY_BYTES > cut)
            .count();
        assert_eq!(
            (errors, flipped),
            (past, 0),
            "cut at {cut}/{}",
            ix.bytes.len()
        );
        assert!(ix
            .file
            .read_cells(ix.snap.cells.iter().map(|(c, _)| c))
            .is_err());
    }

    /// One bit flipped after indexing: a flip in the file header is
    /// never read; one in a cell header makes that cell a typed error;
    /// one in an entry gives that entry with the flipped bit, or a
    /// typed error if it made the source type unknown. Nothing else
    /// changes.
    fn single_bit_flip(seed: u64, pos: f64, bit: u32) {
        let ix = Indexed::new(seed);
        let at = ((ix.bytes.len() - 1) as f64 * pos) as usize;
        let mut bytes = ix.bytes.clone();
        bytes[at] ^= 1 << bit;
        ix.overwrite(&bytes);
        // The cell holding byte `at`, if any, and where in it `at` is.
        let within = ix.offsets.iter().rev().find(|&&o| o <= at).map(|&o| at - o);
        let want = match within {
            None => (0, 0),
            Some(i) if i < CELL_HEADER => (1, 0),
            // The type byte follows id, ra and dec; only its low bit
            // keeps it a known type.
            Some(i) if (i - CELL_HEADER) % ENTRY_BYTES == 24 && bit > 0 => (1, 0),
            Some(_) => (0, 1),
        };
        assert_eq!(ix.read_each(), want, "flip of bit {bit} at {at}");
    }

    /// A cell header rewritten to disagree with the index (another
    /// level, position or entry count) is Malformed, whatever entries
    /// follow it, and no other cell is affected.
    fn lying_cell_header(seed: u64, pick: u64, field: usize, xor: u32) {
        let ix = Indexed::new(seed);
        let victim = (pick % ix.snap.cells.len() as u64) as usize;
        // level u8 at +0, ix u32 at +1, iy u32 at +5, n_entries u32 at +9.
        let at = ix.offsets[victim] + [0, 1, 5, 9][field];
        let mut bytes = ix.bytes.clone();
        if field == 0 {
            bytes[at] ^= (xor % 255 + 1) as u8;
        } else {
            let v = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) ^ xor;
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        ix.overwrite(&bytes);
        for (i, (cell, entries)) in ix.snap.cells.iter().enumerate() {
            match ix.file.read_cells([cell]) {
                Err(SnapshotError::Malformed(m)) if i == victim => {
                    assert!(m.contains("disagrees with the index"), "{m}")
                }
                Ok(got) if i != victim => assert_eq!(bits(&got), bits(entries)),
                other => panic!("cell {i} (victim {victim}): {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn truncation_after_indexing_is_typed(seed in 0u64..1_000_000, frac in 0.0..1.0f64) {
            truncation(seed, frac);
        }

        #[test]
        fn single_bit_flip_after_indexing_is_typed_or_exact(
            seed in 0u64..1_000_000, pos in 0.0..1.0f64, bit in 0u32..8
        ) {
            single_bit_flip(seed, pos, bit);
        }

        #[test]
        fn cell_header_disagreeing_with_the_index_is_malformed(
            seed in 0u64..1_000_000, pick in 0u64..1_000, field in 0usize..4, xor in 1u32..u32::MAX
        ) {
            lying_cell_header(seed, pick, field, xor);
        }
    }
}

/// Checkpoint and snapshot files that share a stem do not share a
/// temp file: each atomic write stages to its own full name + `.tmp`,
/// so concurrent saves of both never trample each other and a
/// bystander `<stem>.tmp` is left alone.
#[test]
fn sckp_and_scst_saved_with_one_stem_stay_separate() {
    let dir = std::env::temp_dir().join(format!("celeste-one-stem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bystander = dir.join("run.tmp");
    std::fs::write(&bystander, b"not ours").unwrap();
    let ckpt_path = dir.join("run.sckp");
    let snap_path = dir.join("run.scst");
    let ckpt = sample_checkpoint(3);
    let snap = sample_snapshot(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..50 {
                ckpt.save(&ckpt_path).unwrap();
            }
        });
        s.spawn(|| {
            for _ in 0..50 {
                snap.save(&snap_path).unwrap();
            }
        });
    });
    let loaded = Checkpoint::load(&ckpt_path, ckpt.fingerprint).unwrap();
    assert_eq!(loaded.encode(), ckpt.encode());
    assert_eq!(Snapshot::load(&snap_path).unwrap(), snap);
    assert_eq!(std::fs::read(&bystander).unwrap(), b"not ours");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["run.sckp", "run.scst", "run.tmp"]);
    std::fs::remove_dir_all(&dir).ok();
}
