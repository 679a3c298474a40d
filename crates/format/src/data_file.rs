//! Per-aggregator data file: fixed header + LOD-ordered particle payload.
//!
//! ## Format versions
//!
//! * **v1** — header + payload, no integrity checking beyond the magic,
//!   version and length arithmetic. Still fully readable.
//! * **v2** (current) — adds end-to-end integrity checking: the header
//!   carries a CRC-32 of itself, and a checksum *footer* after the payload
//!   holds one CRC-32 per chunk of [`CHECKSUM_CHUNK_RECORDS`] particle
//!   records. The footer placement (rather than between header and payload)
//!   keeps the payload at the same byte offset as v1, so prefix/ranged LOD
//!   reads use identical byte arithmetic for both versions and v1 datasets
//!   read back byte-identically.

use spio_types::{Aabb3, Particle, SpioError, PARTICLE_BYTES};
use spio_util::crc32;

/// Magic bytes opening every data file (shared by v1 and v2; the version
/// field distinguishes them).
pub const DATA_MAGIC: [u8; 8] = *b"SPIOPRT1";
/// First data-file format version (no checksums).
pub const DATA_VERSION_V1: u32 = 1;
/// Current data-file format version (checksummed).
pub const DATA_VERSION: u32 = 2;
/// Serialized header size in bytes (identical for v1 and v2).
pub const HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 48 + 8 + 16;
/// Particle records per payload-checksum chunk in v2 files. Chosen so a
/// chunk (~496 KiB) is large enough that the footer is negligible (4 bytes
/// per chunk) yet small enough that ranged LOD reads cross chunk boundaries
/// often and verify the prefix they fetched incrementally.
pub const CHECKSUM_CHUNK_RECORDS: u64 = 4096;

/// Header flag bits. Bits 0 and 1 record the LOD ordering (see
/// `spio_core::writer::flags`); bit 2 is owned by the format layer.
pub mod header_flags {
    /// A v2 checksum footer (one CRC-32 per payload chunk) follows the
    /// payload, and the header's reserved tail carries the chunk size and
    /// a header CRC-32.
    pub const CHECKSUMS: u32 = 4;
}

/// Header of a data file.
///
/// The header records everything a reader needs to interpret the payload
/// without consulting the metadata file: how many particles follow, the
/// bounding box they live in (the aggregation partition's box), and the
/// seed of the LOD shuffle so the permutation is reproducible for
/// verification tooling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFileHeader {
    pub version: u32,
    /// LOD-order bits plus [`header_flags::CHECKSUMS`].
    pub flags: u32,
    /// Number of particle records in the payload.
    pub particle_count: u64,
    /// Spatial bounds of the particles (the partition box).
    pub bounds: Aabb3,
    /// Seed used for the LOD random shuffle of this file's payload.
    pub shuffle_seed: u64,
    /// Particle records per checksum chunk (v2 with checksums; 0 in v1).
    pub checksum_chunk: u32,
}

impl DataFileHeader {
    /// A current-version (checksummed) header.
    pub fn new(particle_count: u64, bounds: Aabb3, shuffle_seed: u64) -> Self {
        DataFileHeader {
            version: DATA_VERSION,
            flags: header_flags::CHECKSUMS,
            particle_count,
            bounds,
            shuffle_seed,
            checksum_chunk: CHECKSUM_CHUNK_RECORDS as u32,
        }
    }

    /// A legacy v1 header (no checksums) — for compatibility tooling and
    /// tests; new data is always written as v2.
    pub fn new_v1(particle_count: u64, bounds: Aabb3, shuffle_seed: u64) -> Self {
        DataFileHeader {
            version: DATA_VERSION_V1,
            flags: 0,
            particle_count,
            bounds,
            shuffle_seed,
            checksum_chunk: 0,
        }
    }

    /// Does this file carry a checksum footer?
    pub fn has_checksums(&self) -> bool {
        self.version >= 2 && self.flags & header_flags::CHECKSUMS != 0 && self.checksum_chunk > 0
    }

    /// Number of checksum-footer entries (0 for v1 or empty files).
    pub fn num_chunks(&self) -> u64 {
        if !self.has_checksums() || self.particle_count == 0 {
            0
        } else {
            self.particle_count.div_ceil(self.checksum_chunk as u64)
        }
    }

    /// Total encoded file size implied by this header: header + payload +
    /// checksum footer. `None` if the particle count overflows.
    pub fn encoded_len(&self) -> Option<u64> {
        self.particle_count
            .checked_mul(PARTICLE_BYTES as u64)?
            .checked_add(HEADER_BYTES as u64)?
            .checked_add(self.num_chunks().checked_mul(4)?)
    }

    /// Serialize to exactly [`HEADER_BYTES`] bytes. v1 headers reproduce
    /// the pre-checksum layout byte for byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES);
        out.extend_from_slice(&DATA_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.particle_count.to_le_bytes());
        for v in self.bounds.lo.iter().chain(&self.bounds.hi) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.shuffle_seed.to_le_bytes());
        if self.version >= 2 {
            out.extend_from_slice(&self.checksum_chunk.to_le_bytes());
            out.extend_from_slice(&[0u8; 8]); // reserved
            let crc = crc32(&out);
            out.extend_from_slice(&crc.to_le_bytes());
        } else {
            out.extend_from_slice(&[0u8; 16]); // reserved
        }
        debug_assert_eq!(out.len(), HEADER_BYTES);
        out
    }

    /// Parse a header from the start of `bytes`. Accepts v1 and v2; a v2
    /// header must pass its own CRC (any flipped header byte is caught).
    pub fn decode(bytes: &[u8]) -> Result<Self, SpioError> {
        if bytes.len() < HEADER_BYTES {
            return Err(SpioError::Format(format!(
                "data file truncated: {} bytes, header needs {HEADER_BYTES}",
                bytes.len()
            )));
        }
        if bytes[..8] != DATA_MAGIC {
            return Err(SpioError::Format("bad data-file magic".into()));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let f64_at = |o: usize| f64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != DATA_VERSION_V1 && version != DATA_VERSION {
            return Err(SpioError::Format(format!(
                "unsupported data-file version {version} (expected {DATA_VERSION_V1} or {DATA_VERSION})"
            )));
        }
        let checksum_chunk = if version >= 2 {
            let stored = u32_at(HEADER_BYTES - 4);
            let computed = crc32(&bytes[..HEADER_BYTES - 4]);
            if stored != computed {
                return Err(SpioError::Format(format!(
                    "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )));
            }
            u32_at(80)
        } else {
            0
        };
        let flags = u32_at(12);
        let particle_count = u64_at(16);
        if version >= 2 && flags & header_flags::CHECKSUMS != 0 && checksum_chunk == 0 {
            return Err(SpioError::Format(
                "checksummed file declares a zero chunk size".into(),
            ));
        }
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for a in 0..3 {
            lo[a] = f64_at(24 + a * 8);
            hi[a] = f64_at(48 + a * 8);
        }
        let shuffle_seed = u64_at(72);
        Ok(DataFileHeader {
            version,
            flags,
            particle_count,
            bounds: Aabb3 { lo, hi },
            shuffle_seed,
            checksum_chunk,
        })
    }
}

/// CRC-32 of each payload chunk: chunk `c` covers records
/// `[c·K, min((c+1)·K, N))` where `K` is the header's chunk size.
fn chunk_crcs(header: &DataFileHeader, payload: &[u8]) -> Vec<u32> {
    let chunk_bytes = header.checksum_chunk as usize * PARTICLE_BYTES;
    payload.chunks(chunk_bytes.max(1)).map(crc32).collect()
}

/// Serialize a complete data file (header + payload + checksum footer for
/// v2 headers) into one buffer.
pub fn encode_data_file(header: &DataFileHeader, particles: &[Particle]) -> Vec<u8> {
    debug_assert_eq!(header.particle_count as usize, particles.len());
    let mut out = header.encode();
    out.reserve(particles.len() * PARTICLE_BYTES + header.num_chunks() as usize * 4);
    for p in particles {
        p.encode(&mut out);
    }
    if header.has_checksums() {
        for crc in chunk_crcs(header, &out[HEADER_BYTES..]) {
            out.extend_from_slice(&crc.to_le_bytes());
        }
    }
    out
}

/// Parse a checksum footer — the [`footer_range`] slice of a data file —
/// into one CRC-32 per payload chunk (empty for v1 / empty files). The one
/// footer parser: whole-file decodes slice it out of the buffer, ranged LOD
/// readers fetch exactly that range.
pub fn decode_checksum_footer(
    header: &DataFileHeader,
    footer: &[u8],
) -> Result<Vec<u32>, SpioError> {
    if header.num_chunks().checked_mul(4) != Some(footer.len() as u64) {
        return Err(SpioError::Format(format!(
            "checksum footer truncated: {} bytes for {} chunks",
            footer.len(),
            header.num_chunks()
        )));
    }
    Ok(footer
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Verify every payload chunk of a whole-file buffer against its checksum
/// footer. Returns the number of chunks verified (0 for v1 files, which
/// carry no checksums). A v2 file with any flipped payload or footer byte
/// fails with [`SpioError::Format`].
pub fn verify_checksums(bytes: &[u8]) -> Result<usize, SpioError> {
    let header = DataFileHeader::decode(bytes)?;
    verify_checksums_with_header(&header, bytes)
}

fn verify_checksums_with_header(header: &DataFileHeader, bytes: &[u8]) -> Result<usize, SpioError> {
    if !header.has_checksums() {
        return Ok(0);
    }
    let (start, end) = footer_range(header);
    let footer = bytes.get(start as usize..end as usize).unwrap_or_default();
    let stored = decode_checksum_footer(header, footer)?;
    let payload_end = HEADER_BYTES + header.particle_count as usize * PARTICLE_BYTES;
    let computed = chunk_crcs(header, &bytes[HEADER_BYTES..payload_end]);
    debug_assert_eq!(stored.len(), computed.len());
    for (i, (s, c)) in stored.iter().zip(&computed).enumerate() {
        if s != c {
            return Err(SpioError::Format(format!(
                "payload checksum mismatch in chunk {i} (records {}..{}): stored {s:#010x}, computed {c:#010x}",
                i as u64 * header.checksum_chunk as u64,
                ((i as u64 + 1) * header.checksum_chunk as u64).min(header.particle_count),
            )));
        }
    }
    Ok(stored.len())
}

/// Parse a complete data file, validating payload length against the header
/// and — for v2 files — every payload chunk against the checksum footer,
/// so a single flipped byte anywhere in the file surfaces as an error
/// rather than a silently wrong query answer.
pub fn decode_data_file(bytes: &[u8]) -> Result<(DataFileHeader, Vec<Particle>), SpioError> {
    let header = DataFileHeader::decode(bytes)?;
    // Checked arithmetic: a corrupted count must produce an error, not an
    // overflow panic.
    let expected = header.encoded_len().filter(|&e| e == bytes.len() as u64);
    if expected.is_none() {
        return Err(SpioError::Format(format!(
            "file is {} bytes, header declares {} particles ({} expected)",
            bytes.len(),
            header.particle_count,
            header
                .encoded_len()
                .map_or("overflowing".to_string(), |e| e.to_string()),
        )));
    }
    verify_checksums_with_header(&header, bytes)?;
    let payload_end = HEADER_BYTES + header.particle_count as usize * PARTICLE_BYTES;
    let particles = bytes[HEADER_BYTES..payload_end]
        .chunks_exact(PARTICLE_BYTES)
        .map(Particle::decode)
        .collect();
    Ok((header, particles))
}

/// Byte range `[start, end)` of particle records `[from, to)` within a data
/// file — what a reader passes to a ranged read to append one more LOD
/// level. Identical for v1 and v2 files (the v2 checksum footer sits
/// *after* the payload precisely so this arithmetic never changes).
pub fn payload_range(from: usize, to: usize) -> (u64, u64) {
    debug_assert!(from <= to);
    (
        (HEADER_BYTES + from * PARTICLE_BYTES) as u64,
        (HEADER_BYTES + to * PARTICLE_BYTES) as u64,
    )
}

/// Byte range of the checksum footer implied by `header` — what a LOD
/// reader fetches (once, tiny) to verify ranged payload reads.
pub fn footer_range(header: &DataFileHeader) -> (u64, u64) {
    let start = HEADER_BYTES as u64 + header.particle_count * PARTICLE_BYTES as u64;
    (start, start + header.num_chunks() * 4)
}

fn default_chunk_count(count: u64) -> u64 {
    if count == 0 {
        0
    } else {
        count.div_ceil(CHECKSUM_CHUNK_RECORDS)
    }
}

/// Encoded size of a current-version (v2, checksummed) data file holding
/// `count` particle records — what planners and simulators should charge
/// per file write.
pub fn encoded_file_len(count: u64) -> u64 {
    HEADER_BYTES as u64 + count * PARTICLE_BYTES as u64 + 4 * default_chunk_count(count)
}

/// Bytes a ranged (LOD) reader fetches from a v2 file before any payload:
/// the header plus the checksum footer.
pub fn lod_open_overhead(count: u64) -> u64 {
    HEADER_BYTES as u64 + 4 * default_chunk_count(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> DataFileHeader {
        DataFileHeader::new(3, Aabb3::new([0.0, 1.0, 2.0], [3.0, 4.0, 5.0]), 0xDEADBEEF)
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(DataFileHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn v1_header_roundtrip_and_layout() {
        let h = DataFileHeader::new_v1(3, Aabb3::new([0.0; 3], [1.0; 3]), 42);
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_BYTES);
        // v1 reserves the final 16 bytes as zero — the pre-checksum layout.
        assert_eq!(&bytes[80..96], &[0u8; 16]);
        assert_eq!(DataFileHeader::decode(&bytes).unwrap(), h);
        assert!(!h.has_checksums());
        assert_eq!(h.num_chunks(), 0);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = sample_header().encode();
        bytes[0] = b'X';
        assert!(matches!(
            DataFileHeader::decode(&bytes),
            Err(SpioError::Format(m)) if m.contains("magic")
        ));
        let mut bytes = sample_header().encode();
        bytes[8] = 99;
        assert!(matches!(
            DataFileHeader::decode(&bytes),
            Err(SpioError::Format(m)) if m.contains("version")
        ));
    }

    #[test]
    fn rejects_truncated_header() {
        let bytes = sample_header().encode();
        assert!(DataFileHeader::decode(&bytes[..HEADER_BYTES - 1]).is_err());
    }

    #[test]
    fn any_flipped_header_byte_is_caught() {
        let good = sample_header().encode();
        for i in 0..HEADER_BYTES {
            let mut bytes = good.clone();
            bytes[i] ^= 1 << (i % 8);
            assert!(
                DataFileHeader::decode(&bytes).is_err(),
                "flip at header byte {i} undetected"
            );
        }
    }

    #[test]
    fn whole_file_roundtrip() {
        let ps: Vec<Particle> = (0..3)
            .map(|i| Particle::synthetic([i as f64, 0.5, 2.5], 100 + i))
            .collect();
        let h = sample_header();
        let bytes = encode_data_file(&h, &ps);
        assert_eq!(bytes.len() as u64, h.encoded_len().unwrap());
        let (h2, ps2) = decode_data_file(&bytes).unwrap();
        assert_eq!(h2, h);
        assert_eq!(ps2, ps);
        assert_eq!(verify_checksums(&bytes).unwrap(), 1);
    }

    #[test]
    fn v1_file_roundtrip_without_footer() {
        let ps: Vec<Particle> = (0..5).map(|i| Particle::synthetic([0.0; 3], i)).collect();
        let h = DataFileHeader::new_v1(5, Aabb3::new([0.0; 3], [1.0; 3]), 7);
        let bytes = encode_data_file(&h, &ps);
        assert_eq!(bytes.len(), HEADER_BYTES + 5 * PARTICLE_BYTES);
        let (h2, ps2) = decode_data_file(&bytes).unwrap();
        assert_eq!(h2, h);
        assert_eq!(ps2, ps);
        assert_eq!(verify_checksums(&bytes).unwrap(), 0);
    }

    #[test]
    fn any_flipped_payload_byte_is_caught() {
        let ps: Vec<Particle> = (0..9)
            .map(|i| Particle::synthetic([i as f64, 0.5, 0.5], i))
            .collect();
        let h = DataFileHeader::new(9, Aabb3::new([0.0; 3], [9.0, 1.0, 1.0]), 3);
        let good = encode_data_file(&h, &ps);
        for i in HEADER_BYTES..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 1 << (i % 8);
            assert!(
                matches!(decode_data_file(&bytes), Err(SpioError::Format(_))),
                "flip at byte {i} undetected"
            );
        }
    }

    #[test]
    fn multi_chunk_files_verify_every_chunk() {
        // A small chunk size forces several chunks without a huge payload.
        let n = 10u64;
        let ps: Vec<Particle> = (0..n).map(|i| Particle::synthetic([0.0; 3], i)).collect();
        let mut h = DataFileHeader::new(n, Aabb3::new([0.0; 3], [1.0; 3]), 1);
        h.checksum_chunk = 3; // chunks of 3, 3, 3, 1 records
        let bytes = encode_data_file(&h, &ps);
        assert_eq!(h.num_chunks(), 4);
        assert_eq!(verify_checksums(&bytes).unwrap(), 4);
        // Corrupt the final (partial) chunk: still caught.
        let mut bad = bytes.clone();
        let last_payload = HEADER_BYTES + (n as usize) * PARTICLE_BYTES - 1;
        bad[last_payload] ^= 0x80;
        assert!(matches!(
            decode_data_file(&bad),
            Err(SpioError::Format(m)) if m.contains("chunk 3")
        ));
    }

    #[test]
    fn detects_payload_length_mismatch() {
        let ps: Vec<Particle> = (0..3).map(|i| Particle::synthetic([0.0; 3], i)).collect();
        let h = sample_header();
        let mut bytes = encode_data_file(&h, &ps);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_data_file(&bytes).is_err());
    }

    #[test]
    fn payload_range_math() {
        let (s, e) = payload_range(0, 0);
        assert_eq!(s, e);
        assert_eq!(s, HEADER_BYTES as u64);
        let (s, e) = payload_range(2, 5);
        assert_eq!(s, (HEADER_BYTES + 2 * PARTICLE_BYTES) as u64);
        assert_eq!(e - s, (3 * PARTICLE_BYTES) as u64);
    }

    #[test]
    fn planner_size_helpers_match_encoding() {
        for n in [0u64, 1, 3, 4095, 4096, 4097, 10_000] {
            let ps: Vec<Particle> = (0..n.min(20))
                .map(|i| Particle::synthetic([0.0; 3], i))
                .collect();
            if (ps.len() as u64) == n {
                let h = DataFileHeader::new(n, Aabb3::new([0.0; 3], [1.0; 3]), 1);
                assert_eq!(
                    encode_data_file(&h, &ps).len() as u64,
                    encoded_file_len(n),
                    "n={n}"
                );
            }
            let h = DataFileHeader::new(n, Aabb3::new([0.0; 3], [1.0; 3]), 1);
            assert_eq!(encoded_file_len(n), h.encoded_len().unwrap(), "n={n}");
            let (s, e) = footer_range(&h);
            assert_eq!(lod_open_overhead(n), HEADER_BYTES as u64 + (e - s), "n={n}");
        }
    }

    #[test]
    fn footer_range_math() {
        let h = DataFileHeader::new(10, Aabb3::new([0.0; 3], [1.0; 3]), 1);
        let (s, e) = footer_range(&h);
        assert_eq!(s, (HEADER_BYTES + 10 * PARTICLE_BYTES) as u64);
        assert_eq!(e - s, 4); // one chunk
        let v1 = DataFileHeader::new_v1(10, Aabb3::new([0.0; 3], [1.0; 3]), 1);
        let (s, e) = footer_range(&v1);
        assert_eq!(s, e);
    }
}
