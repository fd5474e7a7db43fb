//! The one checked codec layer under every binary format in the
//! workspace: SIMG images and SCAT catalogs ([`crate::io`]), SCKP
//! checkpoints (`celeste_sched::checkpoint`), the SCQP wire protocol
//! and SCST snapshots (`celeste_serve`).
//!
//! Every format reads untrusted bytes through [`Reader`], which owns
//! the decisions the formats used to make one by one:
//!
//! * the magic + version header check ([`Reader::open`]);
//! * length checks — every read is checked, so a short buffer is a
//!   typed [`CodecError::Truncated`], never a panic or an over-read;
//! * counted arrays ([`Reader::items`], [`Reader::f32s`]): the
//!   `count × stride` body length goes through `checked_mul` and is
//!   checked against the buffer once, before anything is reserved;
//! * preallocation for variable-size items, capped by what the bytes
//!   left could hold ([`Reader::cap`]);
//! * trailing-byte rejection ([`Reader::finish`]).
//!
//! It also owns the 97-byte [`CatalogEntry`] layout that SCAT, SCQP
//! and SCST share ([`put_entry`] / [`Reader::entry`]) and the atomic
//! file write the file formats use ([`write_atomic`]). Writing goes
//! through the vendored `bytes` [`BufMut`] trait.

use crate::bands::Band;
use crate::catalog::{CatalogEntry, GalaxyShape, SourceType};
use crate::skygeom::SkyCoord;
use bytes::BufMut;
use std::path::Path;

/// One encoded [`CatalogEntry`]: id + position + type + flux +
/// 4 colors + 4 shape parameters.
pub const ENTRY_BYTES: usize = 8 + 16 + 1 + 8 + 32 + 32;

/// A format's version field: SIMG and SCAT carry a `u8`, SCKP, SCQP
/// and SCST a `u16` (little-endian).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// One-byte version.
    U8(u8),
    /// Two-byte little-endian version.
    U16(u16),
}

/// Why a buffer did not decode. Each format maps this onto its own
/// error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a read of the named item.
    Truncated(&'static str),
    /// A count times its item size overflows `usize`.
    Overflow(&'static str),
    /// The first four bytes are not the format's magic.
    BadMagic,
    /// The version field names a version this build does not speak.
    UnsupportedVersion(u16),
    /// Bytes were left over after a complete value.
    Trailing(usize),
    /// A field holds a value outside its domain (unknown tag, band
    /// index out of range, ...).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated(what) => write!(f, "truncated reading {what}"),
            CodecError::Overflow(what) => write!(f, "{what} count overflows its body"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CodecError {}

/// A checked little-endian cursor over untrusted bytes. Reads consume
/// from the front; none of them can panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf` with no header: a record read out of a
    /// file on its own, whose header was checked when the file was
    /// indexed.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// A reader positioned after `buf`'s header, which must be
    /// `magic` followed by exactly `version`.
    pub fn open(
        buf: &'a [u8],
        magic: &[u8; 4],
        version: Version,
    ) -> Result<Reader<'a>, CodecError> {
        let mut r = Reader { buf };
        if r.chunk::<4>("magic")? != magic {
            return Err(CodecError::BadMagic);
        }
        let (found, want) = match version {
            Version::U8(v) => (u16::from(r.u8()?), u16::from(v)),
            Version::U16(v) => (r.u16()?, v),
        };
        if found != want {
            return Err(CodecError::UnsupportedVersion(found));
        }
        Ok(r)
    }

    fn chunk<const N: usize>(&mut self, what: &'static str) -> Result<&'a [u8; N], CodecError> {
        match self.buf.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.buf = tail;
                Ok(head)
            }
            None => Err(CodecError::Truncated(what)),
        }
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.chunk::<1>("u8").map(|&[b]| b)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.chunk("u16").map(|b| u16::from_le_bytes(*b))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.chunk("u32").map(|b| u32::from_le_bytes(*b))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.chunk("u64").map(|b| u64::from_le_bytes(*b))
    }

    /// Read a little-endian `f64` (bits pass through unchanged).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.chunk("f64").map(|b| f64::from_le_bytes(*b))
    }

    /// Read the next `len` bytes as a slice.
    pub fn bytes(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        match self.buf.split_at_checked(len) {
            Some((head, tail)) => {
                self.buf = tail;
                Ok(head)
            }
            None => Err(CodecError::Truncated(what)),
        }
    }

    /// Split off the body of `n` items of `stride` bytes each as its
    /// own reader: the one length check a counted array needs.
    pub fn array(
        &mut self,
        n: usize,
        stride: usize,
        what: &'static str,
    ) -> Result<Reader<'a>, CodecError> {
        let len = n.checked_mul(stride).ok_or(CodecError::Overflow(what))?;
        Ok(Reader {
            buf: self.bytes(len, what)?,
        })
    }

    /// Decode `n` items of exactly `stride` bytes each with `item`.
    pub fn items<T>(
        &mut self,
        n: usize,
        stride: usize,
        what: &'static str,
        item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let mut out = Vec::new();
        self.items_into(&mut out, n, stride, what, item)?;
        Ok(out)
    }

    /// [`Reader::items`], appending to `out`. The body is
    /// length-checked once, before `out` grows (so the reservation is
    /// bounded by the bytes present), and the items together must
    /// consume exactly that body.
    pub fn items_into<T>(
        &mut self,
        out: &mut Vec<T>,
        n: usize,
        stride: usize,
        what: &'static str,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<(), CodecError> {
        let mut body = self.array(n, stride, what)?;
        out.reserve(n);
        for _ in 0..n {
            out.push(item(&mut body)?);
        }
        body.finish()
    }

    /// Decode `n` little-endian `f32`s (an image's pixels).
    pub fn f32s(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, CodecError> {
        let (words, _) = self.array(n, 4, what)?.buf.as_chunks::<4>();
        Ok(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }

    /// `n` capped at how many items of at least `min_bytes` each the
    /// remaining bytes could hold: the reservation for a count whose
    /// items vary in size, so a lying count costs at most
    /// `remaining / min_bytes` slots.
    pub fn cap(&self, n: usize, min_bytes: usize) -> usize {
        n.min(self.buf.len() / min_bytes.max(1))
    }

    /// Read one [`ENTRY_BYTES`]-byte catalog entry. The entry is
    /// length-checked as a whole; its fields are then read from a
    /// fixed-size chunk, whose checks are resolved at compile time.
    pub fn entry(&mut self) -> Result<CatalogEntry, CodecError> {
        let mut f = Reader {
            buf: self.chunk::<ENTRY_BYTES>("entry")?,
        };
        Ok(CatalogEntry {
            id: f.u64()?,
            pos: SkyCoord {
                ra: f.f64()?,
                dec: f.f64()?,
            },
            source_type: source_type(f.u8()?)?,
            flux_r_nmgy: f.f64()?,
            colors: [f.f64()?, f.f64()?, f.f64()?, f.f64()?],
            shape: GalaxyShape {
                frac_dev: f.f64()?,
                axis_ratio: f.f64()?,
                angle_rad: f.f64()?,
                radius_arcsec: f.f64()?,
            },
        })
    }

    /// Read `n` catalog entries.
    pub fn entries(&mut self, n: usize) -> Result<Vec<CatalogEntry>, CodecError> {
        self.items(n, ENTRY_BYTES, "entries", Reader::entry)
    }

    /// Succeed only if every byte has been read.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// Write a format header: `magic` then `version`.
pub fn put_header(b: &mut impl BufMut, magic: &[u8; 4], version: Version) {
    b.put_slice(magic);
    match version {
        Version::U8(v) => b.put_u8(v),
        Version::U16(v) => b.put_u16_le(v),
    }
}

/// Append one [`ENTRY_BYTES`]-byte catalog entry.
pub fn put_entry(b: &mut impl BufMut, e: &CatalogEntry) {
    b.put_u64_le(e.id);
    b.put_f64_le(e.pos.ra);
    b.put_f64_le(e.pos.dec);
    b.put_u8(source_type_code(e.source_type));
    b.put_f64_le(e.flux_r_nmgy);
    for c in e.colors {
        b.put_f64_le(c);
    }
    for v in [
        e.shape.frac_dev,
        e.shape.axis_ratio,
        e.shape.angle_rad,
        e.shape.radius_arcsec,
    ] {
        b.put_f64_le(v);
    }
}

/// The on-disk code of a source type: star 0, galaxy 1.
pub fn source_type_code(t: SourceType) -> u8 {
    match t {
        SourceType::Star => 0,
        SourceType::Galaxy => 1,
    }
}

/// The source type with on-disk `code`.
pub fn source_type(code: u8) -> Result<SourceType, CodecError> {
    match code {
        0 => Ok(SourceType::Star),
        1 => Ok(SourceType::Galaxy),
        other => Err(CodecError::Invalid(format!("unknown source type {other}"))),
    }
}

/// The band with on-disk index `index` (u=0 … z=4).
pub fn band(index: u8) -> Result<Band, CodecError> {
    Band::ALL
        .get(usize::from(index))
        .copied()
        .ok_or_else(|| CodecError::Invalid(format!("band index {index} out of range")))
}

/// Write `bytes` to `path` atomically: write `path` + `.tmp` in the
/// same directory, then rename it over `path`, so a process that dies
/// mid-write leaves any previous file intact. The suffix is appended to the
/// full file name, so files differing only in extension never share
/// a temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CatalogEntry {
        CatalogEntry {
            id: 42,
            pos: SkyCoord::new(10.5, -2.25),
            source_type: SourceType::Galaxy,
            flux_r_nmgy: 3.5,
            colors: [0.1, -0.2, 0.3, -0.4],
            shape: GalaxyShape {
                frac_dev: 0.3,
                axis_ratio: 0.7,
                angle_rad: 1.1,
                radius_arcsec: 2.2,
            },
        }
    }

    #[test]
    fn entry_round_trips_in_its_fixed_width() {
        let mut b = Vec::new();
        put_entry(&mut b, &entry());
        assert_eq!(b.len(), ENTRY_BYTES);
        let mut r = Reader { buf: &b };
        assert_eq!(r.entry().unwrap(), entry());
        r.finish().unwrap();
        // The type byte sits after id + ra + dec.
        b[24] = 7;
        assert!(matches!(
            Reader { buf: &b }.entry(),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn header_checks_magic_and_version_width() {
        let mut b = Vec::new();
        put_header(&mut b, b"TEST", Version::U16(3));
        b.push(9);
        let mut r = Reader::open(&b, b"TEST", Version::U16(3)).unwrap();
        assert_eq!(r.u8().unwrap(), 9);
        r.finish().unwrap();
        assert_eq!(
            Reader::open(&b, b"TEST", Version::U16(4)).err(),
            Some(CodecError::UnsupportedVersion(3))
        );
        // Read as a one-byte version, the same bytes say version 3.
        assert!(Reader::open(&b, b"TEST", Version::U8(3)).is_ok());
        assert_eq!(
            Reader::open(&b, b"NOPE", Version::U16(3)).err(),
            Some(CodecError::BadMagic)
        );
        assert!(matches!(
            Reader::open(b"TES", b"TEST", Version::U8(1)),
            Err(CodecError::Truncated("magic"))
        ));
    }

    #[test]
    fn counted_arrays_check_their_body_once() {
        let bytes = [1u8, 0, 0, 0, 2, 0, 0, 0, 3];
        let mut r = Reader { buf: &bytes };
        assert_eq!(r.items(2, 4, "pairs", Reader::u32).unwrap(), vec![1, 2]);
        assert_eq!(r.u8().unwrap(), 3);
        // A lying count is refused before anything is reserved.
        let mut r = Reader { buf: &bytes };
        assert!(matches!(
            r.items(usize::MAX / 2, 4, "pairs", Reader::u32),
            Err(CodecError::Overflow("pairs"))
        ));
        assert!(matches!(
            r.f32s(3, "pixels"),
            Err(CodecError::Truncated("pixels"))
        ));
        // An item that reads less than its stride is a format bug,
        // caught as trailing bytes in the body.
        let mut r = Reader { buf: &bytes };
        assert_eq!(
            r.items(2, 4, "halves", Reader::u16).err(),
            Some(CodecError::Trailing(4))
        );
        assert_eq!(Reader { buf: &bytes }.cap(1000, 4), 2);
    }

    #[test]
    fn write_atomic_appends_tmp_to_the_full_name() {
        let dir = std::env::temp_dir().join(format!("celeste-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("run.sckp");
        let b = dir.join("run.scst");
        write_atomic(&a, b"first").unwrap();
        write_atomic(&b, b"second").unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), b"first");
        assert_eq!(std::fs::read(&b).unwrap(), b"second");
        assert!(!dir.join("run.tmp").exists());
        assert!(!dir.join("run.sckp.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
