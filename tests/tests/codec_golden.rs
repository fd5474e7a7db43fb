//! Golden-bytes pins for every binary format in the workspace: one
//! fixed value per format (SIMG image, SCAT catalog, SCKP v2
//! checkpoint, SCST v1 snapshot) and per SCQP frame kind (every
//! request and response shape, the error frame included). Each
//! encoding is compared against its committed length and 64-bit
//! FNV-1a hash, and must decode back to the value it came from.
//!
//! These pins are the proof that a codec change is byte-identical:
//! files and frames written by earlier builds must keep decoding, so
//! the expected table changes only together with a format's version
//! number.

use std::sync::Arc;

use celeste::serve::wire::{
    decode_payload, encode_request, encode_response, Body, ErrorFrame, ErrorKind, Request, Response,
};
use celeste::serve::Snapshot;
use celeste::{CatalogQuery, CatalogStoreStats, CellOccupancy, SourceFilter};
use celeste_core::{SourceParams, NUM_PARAMS};
use celeste_sched::checkpoint::Checkpoint;
use celeste_sched::runtime::RegionStats;
use celeste_sched::{RegionProvenance, RegionResult};
use celeste_survey::bands::Band;
use celeste_survey::catalog::{Catalog, CatalogEntry, GalaxyShape, SourceType};
use celeste_survey::image::Image;
use celeste_survey::io::{decode_catalog, decode_image, encode_catalog, encode_image};
use celeste_survey::psf::{Psf, PsfComponent};
use celeste_survey::skygeom::{CellId, FieldId, SkyCoord, SkyRect};
use celeste_survey::wcs::Wcs;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn entry(id: u64, galaxy: bool) -> CatalogEntry {
    CatalogEntry {
        id,
        pos: SkyCoord::new(12.5 + id as f64 * 0.001, -3.25 - id as f64 * 0.002),
        source_type: if galaxy {
            SourceType::Galaxy
        } else {
            SourceType::Star
        },
        flux_r_nmgy: 1.5 * id as f64 - 0.125,
        colors: [0.5, -0.25, 0.125, id as f64 * 0.01],
        shape: GalaxyShape {
            frac_dev: 0.3,
            axis_ratio: 0.6,
            angle_rad: 1.1,
            radius_arcsec: 2.0 + id as f64 * 0.1,
        },
    }
}

fn image() -> Image {
    Image {
        field: FieldId {
            run: 3704,
            camcol: 3,
            field: 91,
        },
        band: Band::I,
        wcs: Wcs {
            sky0: SkyCoord::new(10.0, -1.5),
            pix0: [0.5, 1.5],
            jac: [[2500.0, 1.0e-3], [-2.0e-3, 2500.0]],
        },
        width: 3,
        height: 2,
        pixels: vec![100.0, 101.5, -0.25, 1.0e6, f32::MIN_POSITIVE, 7.0],
        sky_level: 100.0,
        nmgy_to_counts: 300.0,
        psf: Arc::new(Psf {
            components: vec![
                PsfComponent {
                    weight: 0.85,
                    sigma_px: 1.3,
                },
                PsfComponent {
                    weight: 0.15,
                    sigma_px: 2.6,
                },
            ],
        }),
    }
}

fn checkpoint() -> Checkpoint {
    let region = |task_id: u64, n_sources: u64, n_keys: u32| RegionResult {
        task_id,
        stage: (task_id % 2) as u8,
        node: task_id as usize + 1,
        sources: (0..n_sources)
            .map(|i| {
                let mut params = [0.0; NUM_PARAMS];
                for (j, p) in params.iter_mut().enumerate() {
                    *p = (task_id * 100 + i * 10 + j as u64) as f64 * 0.37 - 5.0;
                }
                SourceParams {
                    id: task_id * 1000 + i,
                    base_pos: SkyCoord::new(0.25 * i as f64, -0.5 * i as f64),
                    params,
                }
            })
            .collect(),
        stats: RegionStats {
            passes: 2,
            batches: 3,
            fits: 5,
            newton_iters: 40,
            conflict_edges: 7,
            active_pixels: 9000,
            graph_builds: 1,
            active_pixel_visits: 0,
        },
        provenance: RegionProvenance {
            image_keys: (0..n_keys)
                .map(|k| {
                    (
                        FieldId {
                            run: 1000 + k,
                            camcol: 2,
                            field: k as u16,
                        },
                        Band::ALL[k as usize % 5],
                    )
                })
                .collect(),
            config_hash: 0xABCD_0000 ^ task_id,
        },
    };
    Checkpoint {
        fingerprint: 0xDEAD_BEEF_1234_5678,
        completed: vec![region(4, 2, 3), region(9, 0, 0)],
    }
}

fn rect() -> SkyRect {
    SkyRect::new(10.0, 11.5, -2.0, 0.5)
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "scqp_query_cone",
            Request::Query(CatalogQuery::Cone {
                center: SkyCoord::new(10.0, -5.0),
                radius_arcsec: 42.0,
            }),
        ),
        (
            "scqp_query_rect",
            Request::Query(CatalogQuery::Rect {
                rect: rect(),
                filter: SourceFilter {
                    source_type: Some(SourceType::Galaxy),
                    min_flux: Some((Band::Z, 0.25)),
                },
            }),
        ),
        (
            "scqp_query_rect_unfiltered",
            Request::Query(CatalogQuery::Rect {
                rect: rect(),
                filter: SourceFilter::default(),
            }),
        ),
        (
            "scqp_query_brightest_within",
            Request::Query(CatalogQuery::BrightestN {
                n: 17,
                within: Some(rect()),
            }),
        ),
        (
            "scqp_query_brightest",
            Request::Query(CatalogQuery::BrightestN { n: 3, within: None }),
        ),
        (
            "scqp_cone",
            Request::Cone {
                center: SkyCoord::new(359.9, 0.1),
                radius_arcsec: 3600.0,
            },
        ),
        ("scqp_stats", Request::Stats),
        ("scqp_ping", Request::Ping),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let entries: Vec<CatalogEntry> = (1..4).map(|i| entry(i, i % 2 == 0)).collect();
    vec![
        ("scqp_entries", Response::Entries(entries.clone())),
        (
            "scqp_cone_hits",
            Response::Cone(
                entries
                    .into_iter()
                    .map(|e| {
                        let sep = e.id as f64 * 0.75;
                        (e, sep)
                    })
                    .collect(),
            ),
        ),
        (
            "scqp_stats_resp",
            Response::Stats(CatalogStoreStats {
                entries: 9,
                cells: 2,
                regions_ingested: 4,
                cache_entries: 3,
                cache_hits: 1,
                queries: 55,
                per_cell: vec![
                    CellOccupancy {
                        cell: CellId {
                            level: 10,
                            ix: 3,
                            iy: 9,
                        },
                        entries: 5,
                        touches: 12,
                        last_touch: 55,
                    },
                    CellOccupancy {
                        cell: CellId {
                            level: 10,
                            ix: 4,
                            iy: 9,
                        },
                        entries: 4,
                        touches: 2,
                        last_touch: 31,
                    },
                ],
            }),
        ),
        ("scqp_pong", Response::Pong),
        (
            "scqp_error",
            Response::Error(ErrorFrame {
                kind: ErrorKind::InvalidQuery,
                message: "cone radius must be finite".into(),
            }),
        ),
    ]
}

/// Every pinned encoding, by name, each checked to decode back to the
/// value it was encoded from.
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = Vec::new();

    let img = image();
    let bytes = encode_image(&img).to_vec();
    let back = decode_image(&bytes).expect("SIMG decodes");
    assert_eq!(
        encode_image(&back).to_vec(),
        bytes,
        "SIMG re-encodes identically"
    );
    out.push(("simg", bytes));

    let cat = Catalog::new((1..4).map(|i| entry(i, i != 2)).collect());
    let bytes = encode_catalog(&cat).to_vec();
    assert_eq!(
        decode_catalog(&bytes).expect("SCAT decodes").entries,
        cat.entries
    );
    out.push(("scat", bytes));

    let ckpt = checkpoint();
    let bytes = ckpt.encode();
    let back = Checkpoint::decode(&bytes).expect("SCKP decodes");
    assert_eq!(back.encode(), bytes, "SCKP re-encodes identically");
    out.push(("sckp_v2", bytes));

    let snap = Snapshot::of_entries((1..7).map(|i| entry(i * 37, i % 3 == 0)).collect(), 10);
    let bytes = snap.encode();
    assert_eq!(Snapshot::decode(&bytes).expect("SCST decodes"), snap);
    out.push(("scst_v1", bytes));

    for (name, req) in requests() {
        let frame = encode_request(0x0102_0304_0506_0708, &req);
        let decoded = decode_payload(&frame[4..]).expect("request decodes");
        assert_eq!(decoded.body, Body::Request(req), "{name}");
        out.push((name, frame));
    }
    for (name, resp) in responses() {
        let frame = encode_response(77, &resp);
        let decoded = decode_payload(&frame[4..]).expect("response decodes");
        assert_eq!(decoded.body, Body::Response(resp), "{name}");
        out.push((name, frame));
    }
    out
}

/// `(name, encoded length, FNV-1a 64 of the encoding)`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("simg", 159, 0xb79e44ec2aea3791),
    ("scat", 300, 0x7ce1797978480ab1),
    ("sckp_v2", 967, 0xc77f872f43f99e6e),
    ("scst_v1", 666, 0x78e86a1608d31b47),
    ("scqp_query_cone", 44, 0x937b48b8f85137c7),
    ("scqp_query_rect", 63, 0x8fd40cb2d8ac18e5),
    ("scqp_query_rect_unfiltered", 63, 0x61a06e4448ed746c),
    ("scqp_query_brightest_within", 57, 0xa8fac67737d64209),
    ("scqp_query_brightest", 25, 0x3a24030579b40c02),
    ("scqp_cone", 43, 0x0dbffb5180da9d35),
    ("scqp_stats", 19, 0x4bd1cce8a8cd49b1),
    ("scqp_ping", 19, 0x4bd1cde8a8cd4b64),
    ("scqp_entries", 314, 0x364fa9dee26b6001),
    ("scqp_cone_hits", 338, 0x79b4ab10f787840e),
    ("scqp_stats_resp", 129, 0x9e106aac823662bc),
    ("scqp_pong", 19, 0xafd2eb24df2e06bb),
    ("scqp_error", 50, 0x0761a79bf3eb2b92),
];

#[test]
fn encodings_match_the_committed_golden_bytes() {
    let got: Vec<(&str, usize, u64)> = encodings()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a(bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, len, h)| format!("    (\"{n}\", {len}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got.as_slice(), GOLDEN, "encodings drifted; now:\n{table}");
}
