//! Durable campaign checkpoints: completed region results serialized
//! periodically so a killed campaign resumes instead of restarting.
//!
//! Format (`SCKP`, little-endian, read through the checked
//! `celeste_survey::codec::Reader` like every other binary format):
//!
//! ```text
//! magic "SCKP" | version u16 | fingerprint u64 | n_regions u32
//! per region:
//!   task_id u64 | stage u8 | node u32
//!   n_sources u32, each: id u64, base ra f64, base dec f64, 44×f64
//!   stats: 7×u64 (passes batches fits newton_iters conflict_edges
//!                 active_pixels graph_builds)
//!   provenance (v2): config_hash u64 | n_keys u32,
//!     each key: run u32 | camcol u16 | field u16 | band u8
//! ```
//!
//! The fingerprint hashes the task plan `(id, stage)*`; a checkpoint
//! only loads against the plan that produced it. Writes go through
//! `codec::write_atomic` (`path` + `.tmp`, then rename), so a crash
//! mid-write leaves the previous checkpoint intact. Since completed
//! attempts are deterministic and never re-run on resume, parameters
//! are stored bit-exactly (`f64::to_bits`) and the resumed catalog is
//! bit-identical to an uninterrupted run.

use crate::campaign::{RegionProvenance, RegionResult};
use crate::fault::mix64;
use crate::partition::RegionTask;
use crate::runtime::RegionStats;
use bytes::BufMut;
use celeste_core::{SourceParams, NUM_PARAMS};
use celeste_survey::codec::{band, put_header, write_atomic, CodecError, Reader, Version};
use celeste_survey::skygeom::{FieldId, SkyCoord};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SCKP";
// v2 added per-region provenance (image keys + config hash); earlier
// files are rejected as unsupported rather than silently misread.
const VERSION: u16 = 2;

/// When and where a campaign checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically via temp + rename).
    pub path: PathBuf,
    /// Write after every `every` completed regions (and always once
    /// more when the campaign exits). 1 = after each region.
    pub every: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` after every `every` completed regions.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every: every.max(1),
        }
    }
}

/// Errors reading or writing a checkpoint file.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// The file is not a checkpoint, or is truncated/corrupt.
    Malformed(String),
    /// The checkpoint was produced by a different task plan.
    PlanMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the current task plan.
        expected: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::PlanMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different task plan \
                 (fingerprint {found:#018x}, campaign has {expected:#018x})"
            ),
        }
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Malformed(e.to_string())
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Order-independent fingerprint of a task plan: which `(id, stage)`
/// pairs the campaign will run. Resuming against a different plan
/// (different partition, different survey) is rejected.
pub fn plan_fingerprint(tasks: &[RegionTask]) -> u64 {
    let mut acc = 0xC0FF_EE00_5EED_0001u64;
    for t in tasks {
        acc ^= mix64(t.id ^ ((t.stage as u64) << 56) ^ 0x51A6_E00D);
    }
    mix64(acc)
}

/// A decoded checkpoint: the completed region results of a prior
/// (partial or finished) run of one task plan.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// [`plan_fingerprint`] of the producing campaign's task plan.
    pub fingerprint: u64,
    /// Completed regions, in completion order.
    pub completed: Vec<RegionResult>,
}

impl Checkpoint {
    /// Serialize to the `SCKP` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + self.completed.len() * 512);
        put_header(&mut b, MAGIC, Version::U16(VERSION));
        b.put_u64_le(self.fingerprint);
        b.put_u32_le(self.completed.len() as u32);
        for r in &self.completed {
            b.put_u64_le(r.task_id);
            b.put_u8(r.stage);
            b.put_u32_le(r.node as u32);
            b.put_u32_le(r.sources.len() as u32);
            for sp in &r.sources {
                b.put_u64_le(sp.id);
                b.put_f64_le(sp.base_pos.ra);
                b.put_f64_le(sp.base_pos.dec);
                for &p in &sp.params {
                    b.put_f64_le(p);
                }
            }
            for v in [
                r.stats.passes,
                r.stats.batches,
                r.stats.fits,
                r.stats.newton_iters,
                r.stats.conflict_edges,
                r.stats.active_pixels,
                r.stats.graph_builds,
            ] {
                b.put_u64_le(v as u64);
            }
            b.put_u64_le(r.provenance.config_hash);
            b.put_u32_le(r.provenance.image_keys.len() as u32);
            for (field, band) in &r.provenance.image_keys {
                b.put_u32_le(field.run);
                b.put_u16_le(field.camcol);
                b.put_u16_le(field.field);
                b.put_u8(band.index() as u8);
            }
        }
        b
    }

    /// Decode an `SCKP` buffer.
    pub fn decode(buf: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = Reader::open(buf, MAGIC, Version::U16(VERSION))?;
        let fingerprint = r.u64()?;
        let n_regions = r.u32()? as usize;
        // The smallest encoded region (no sources, no keys) is 85
        // bytes, which bounds what a lying count can reserve.
        const MIN_REGION_BYTES: usize = 8 + 1 + 4 + 4 + 7 * 8 + 8 + 4;
        let mut completed = Vec::with_capacity(r.cap(n_regions, MIN_REGION_BYTES));
        for _ in 0..n_regions {
            completed.push(decode_region(&mut r)?);
        }
        r.finish()?;
        Ok(Checkpoint {
            fingerprint,
            completed,
        })
    }

    /// Atomically write to `path` (see [`write_atomic`]), so a crash
    /// mid-write never corrupts an existing checkpoint.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.encode()).map_err(CheckpointError::Io)
    }

    /// Load from `path` and verify it belongs to the plan with
    /// `expected` fingerprint.
    pub fn load(path: &Path, expected: u64) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path).map_err(CheckpointError::Io)?;
        let ckpt = Checkpoint::decode(&bytes)?;
        if ckpt.fingerprint != expected {
            return Err(CheckpointError::PlanMismatch {
                found: ckpt.fingerprint,
                expected,
            });
        }
        Ok(ckpt)
    }
}

fn decode_region(r: &mut Reader<'_>) -> Result<RegionResult, CodecError> {
    const SOURCE_BYTES: usize = 8 + 16 + NUM_PARAMS * 8;
    let task_id = r.u64()?;
    let stage = r.u8()?;
    let node = r.u32()? as usize;
    let n_sources = r.u32()? as usize;
    let sources = r.items(n_sources, SOURCE_BYTES, "sources", |r| {
        let id = r.u64()?;
        let base_pos = SkyCoord::new(r.f64()?, r.f64()?);
        let mut params = [0.0f64; NUM_PARAMS];
        for p in &mut params {
            *p = r.f64()?;
        }
        Ok(SourceParams {
            id,
            base_pos,
            params,
        })
    })?;
    let stats = RegionStats {
        passes: r.u64()? as usize,
        batches: r.u64()? as usize,
        fits: r.u64()? as usize,
        newton_iters: r.u64()? as usize,
        conflict_edges: r.u64()? as usize,
        active_pixels: r.u64()? as usize,
        graph_builds: r.u64()? as usize,
        active_pixel_visits: 0,
    };
    let config_hash = r.u64()?;
    let n_keys = r.u32()? as usize;
    let image_keys = r.items(n_keys, 4 + 2 + 2 + 1, "provenance keys", |r| {
        let field = FieldId {
            run: r.u32()?,
            camcol: r.u16()?,
            field: r.u16()?,
        };
        Ok((field, band(r.u8()?)?))
    })?;
    Ok(RegionResult {
        task_id,
        stage,
        node,
        sources,
        stats,
        provenance: RegionProvenance {
            image_keys,
            config_hash,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use celeste_survey::bands::Band;
    use celeste_survey::skygeom::SkyRect;

    fn region(task_id: u64, n_sources: u64) -> RegionResult {
        RegionResult {
            task_id,
            stage: (task_id % 2) as u8,
            node: task_id as usize % 3,
            sources: (0..n_sources)
                .map(|i| {
                    let mut params = [0.0; NUM_PARAMS];
                    for (j, p) in params.iter_mut().enumerate() {
                        // Exercise sign/exponent bits incl. negatives.
                        *p = ((task_id * 131 + i * 17 + j as u64) as f64 - 300.0) * 0.37;
                    }
                    SourceParams {
                        id: task_id * 1000 + i,
                        base_pos: SkyCoord::new(0.1 * i as f64, -0.05 * i as f64),
                        params,
                    }
                })
                .collect(),
            stats: RegionStats {
                passes: 2,
                batches: 3,
                fits: 5 + task_id as usize,
                newton_iters: 40,
                conflict_edges: 7,
                active_pixels: 9000,
                graph_builds: 1,
                active_pixel_visits: 0,
            },
            provenance: RegionProvenance {
                image_keys: (0..task_id % 3)
                    .flat_map(|f| {
                        Band::ALL.iter().map(move |&b| {
                            (
                                FieldId {
                                    run: 1000 + task_id as u32,
                                    camcol: 1,
                                    field: f as u16,
                                },
                                b,
                            )
                        })
                    })
                    .collect(),
                config_hash: 0xABCD_0000 ^ task_id,
            },
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ckpt = Checkpoint {
            fingerprint: 0xDEAD_BEEF_1234_5678,
            completed: (0..5u64).map(|t| region(t, 1 + t % 3)).collect(),
        };
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.fingerprint, ckpt.fingerprint);
        assert_eq!(decoded.completed.len(), ckpt.completed.len());
        for (a, b) in decoded.completed.iter().zip(&ckpt.completed) {
            assert_eq!(a.task_id, b.task_id);
            assert_eq!(a.stage, b.stage);
            assert_eq!(a.node, b.node);
            assert_eq!(a.sources.len(), b.sources.len());
            for (x, y) in a.sources.iter().zip(&b.sources) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.base_pos.ra.to_bits(), y.base_pos.ra.to_bits());
                assert_eq!(x.base_pos.dec.to_bits(), y.base_pos.dec.to_bits());
                for (p, q) in x.params.iter().zip(&y.params) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
            assert_eq!(a.stats.fits, b.stats.fits);
            assert_eq!(a.stats.active_pixels, b.stats.active_pixels);
            assert_eq!(a.provenance, b.provenance);
        }
    }

    #[test]
    fn save_load_and_plan_guard() {
        let tasks: Vec<RegionTask> = (0..4u64)
            .map(|id| RegionTask {
                id,
                stage: (id % 2) as u8,
                rect: SkyRect::new(0.0, 1.0, 0.0, 1.0),
                source_indices: vec![],
                predicted_work: 1.0,
            })
            .collect();
        let fp = plan_fingerprint(&tasks);
        // Order-independent, content-sensitive.
        let mut rev = tasks.clone();
        rev.reverse();
        assert_eq!(fp, plan_fingerprint(&rev));
        assert_ne!(fp, plan_fingerprint(&tasks[..3]));

        let dir = std::env::temp_dir().join(format!("celeste-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.sckp");
        let ckpt = Checkpoint {
            fingerprint: fp,
            completed: vec![region(1, 2)],
        };
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path, fp).unwrap();
        assert_eq!(loaded.completed.len(), 1);
        assert_eq!(loaded.completed[0].task_id, 1);
        match Checkpoint::load(&path, fp ^ 1) {
            Err(CheckpointError::PlanMismatch { found, expected }) => {
                assert_eq!(found, fp);
                assert_eq!(expected, fp ^ 1);
            }
            other => panic!("want PlanMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_buffers_are_typed_errors() {
        assert!(matches!(
            Checkpoint::decode(b"nope"),
            Err(CheckpointError::Malformed(_))
        ));
        let good = Checkpoint {
            fingerprint: 7,
            completed: vec![region(0, 2)],
        }
        .encode();
        assert!(matches!(
            Checkpoint::decode(&good[..good.len() - 3]),
            Err(CheckpointError::Malformed(_))
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&bad_magic),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
