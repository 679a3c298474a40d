//! The particle record.
//!
//! The paper's evaluation (§5.1) uses datasets representative of the Uintah
//! simulation framework, where each particle carries 15 double-precision
//! values (a 3-component position, a 9-component stress tensor, density,
//! volume and an ID) plus one single-precision value (a material type), for a
//! total of 124 bytes per particle. We reproduce that record exactly so the
//! per-core data volumes match the paper (32 Ki particles ≈ 4 MB, 64 Ki ≈ 8 MB).

use crate::error::SpioError;

/// Serialized size of one [`Particle`] in bytes: 15 × f64 + 1 × f32.
pub const PARTICLE_BYTES: usize = 15 * 8 + 4;

/// Byte offset of the position (3 × `f64`) within an encoded record.
pub const POSITION_OFFSET: usize = 0;
/// Byte offset of the stress tensor (9 × `f64`) within an encoded record.
pub const STRESS_OFFSET: usize = 24;
/// Byte offset of the density (`f64`) within an encoded record.
pub const DENSITY_OFFSET: usize = 96;
/// Byte offset of the volume (`f64`) within an encoded record.
pub const VOLUME_OFFSET: usize = 104;
/// Byte offset of the id (`u64`) within an encoded record; the `f32`
/// material type fills the last 4 bytes.
pub const ID_OFFSET: usize = 112;

/// A single simulation particle (Uintah material-point-method style record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Spatial position (x, y, z).
    pub position: [f64; 3],
    /// Cauchy stress tensor, row-major 3×3.
    pub stress: [f64; 9],
    /// Mass density at the particle.
    pub density: f64,
    /// Volume represented by the particle.
    pub volume: f64,
    /// Globally unique particle identifier (stored as a double in the paper's
    /// record; we keep it integral and encode it as 8 bytes on disk).
    pub id: u64,
    /// Material type tag (the record's single-precision variable).
    pub ptype: f32,
}

impl Particle {
    /// A particle at `position` with the given `id` and all physical fields
    /// derived deterministically from the id (useful for tests that must
    /// detect payload corruption, not just position errors).
    pub fn synthetic(position: [f64; 3], id: u64) -> Self {
        let f = id as f64;
        let mut stress = [0.0; 9];
        for (i, s) in stress.iter_mut().enumerate() {
            *s = f * 0.25 + i as f64;
        }
        Particle {
            position,
            stress,
            density: 1.0 + (id % 97) as f64 * 0.01,
            volume: 1e-6 + (id % 13) as f64 * 1e-7,
            id,
            ptype: (id % 4) as f32,
        }
    }

    /// Encode into one record, little-endian, in the fixed on-disk field
    /// order: position, stress, density, volume, id, type. Every `f64` and
    /// the id land in their own 8-byte word slot.
    pub fn encode(&self, record: &mut [u8; PARTICLE_BYTES]) {
        let (words, tail) = record.as_chunks_mut::<8>();
        let mut put = |offset: usize, v: f64| words[offset / 8] = v.to_le_bytes();
        for (i, &v) in self.position.iter().enumerate() {
            put(POSITION_OFFSET + 8 * i, v);
        }
        for (i, &v) in self.stress.iter().enumerate() {
            put(STRESS_OFFSET + 8 * i, v);
        }
        put(DENSITY_OFFSET, self.density);
        put(VOLUME_OFFSET, self.volume);
        words[ID_OFFSET / 8] = self.id.to_le_bytes();
        tail.copy_from_slice(&self.ptype.to_le_bytes());
    }

    /// Decode one particle record.
    pub fn decode(record: &[u8; PARTICLE_BYTES]) -> Self {
        let f64_at = |offset: usize| record_f64(record, offset);
        let &[.., t0, t1, t2, t3] = record;
        Particle {
            position: record_position(record),
            stress: std::array::from_fn(|i| f64_at(STRESS_OFFSET + 8 * i)),
            density: f64_at(DENSITY_OFFSET),
            volume: f64_at(VOLUME_OFFSET),
            id: u64::from_le_bytes(record.as_chunks::<8>().0[ID_OFFSET / 8]),
            ptype: f32::from_le_bytes([t0, t1, t2, t3]),
        }
    }
}

/// The `f64` at byte `offset` (a multiple of 8, such as
/// [`DENSITY_OFFSET`]) of an encoded record, read without decoding the
/// rest of it.
pub fn record_f64(record: &[u8; PARTICLE_BYTES], offset: usize) -> f64 {
    f64::from_le_bytes(record.as_chunks::<8>().0[offset / 8])
}

/// The position of an encoded record.
pub fn record_position(record: &[u8; PARTICLE_BYTES]) -> [f64; 3] {
    [0, 8, 16].map(|i| record_f64(record, POSITION_OFFSET + i))
}

/// Encode a slice of particles into a contiguous byte buffer.
pub fn encode_particles(particles: &[Particle]) -> Vec<u8> {
    let mut out = vec![0u8; particles.len() * PARTICLE_BYTES];
    let (records, _) = out.as_chunks_mut::<PARTICLE_BYTES>();
    for (record, p) in records.iter_mut().zip(particles) {
        p.encode(record);
    }
    out
}

/// One reference per encoded record across `messages`, in message order:
/// an aggregator's view of the records it received, without decoding them.
/// A message that is not a whole number of records is a
/// [`SpioError::Format`].
pub fn record_table<M: AsRef<[u8]>>(
    messages: &[M],
) -> Result<Vec<&[u8; PARTICLE_BYTES]>, SpioError> {
    let total = messages.iter().map(|m| m.as_ref().len()).sum::<usize>() / PARTICLE_BYTES;
    let mut table = Vec::with_capacity(total);
    for m in messages {
        let (records, tail) = m.as_ref().as_chunks::<PARTICLE_BYTES>();
        if !tail.is_empty() {
            return Err(ragged(m.as_ref().len()));
        }
        table.extend(records);
    }
    Ok(table)
}

fn ragged(len: usize) -> SpioError {
    SpioError::Format(format!(
        "{len} bytes is not a whole number of {PARTICLE_BYTES}-byte particle records"
    ))
}

/// Decode a contiguous byte buffer into particles; a buffer that is not a
/// whole number of records is a [`SpioError::Format`].
pub fn decode_particles(bytes: &[u8]) -> Result<Vec<Particle>, SpioError> {
    let (records, tail) = bytes.as_chunks::<PARTICLE_BYTES>();
    if !tail.is_empty() {
        return Err(ragged(bytes.len()));
    }
    Ok(records.iter().map(Particle::decode).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_bytes_matches_paper_record() {
        // 15 doubles + 1 float = 124 bytes; 32 Ki particles ≈ 4 MB per core.
        assert_eq!(PARTICLE_BYTES, 124);
        let per_core = 32 * 1024 * PARTICLE_BYTES;
        assert!(per_core > 3_900_000 && per_core < 4_200_000);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Particle::synthetic([0.1, -2.5, 3.75], 123456789);
        let mut record = [0u8; PARTICLE_BYTES];
        p.encode(&mut record);
        assert_eq!(Particle::decode(&record), p);
        assert_eq!(record_position(&record), p.position);
        assert_eq!(record_f64(&record, DENSITY_OFFSET), p.density);
        assert_eq!(record_f64(&record, VOLUME_OFFSET), p.volume);
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let ps: Vec<Particle> = (0..100)
            .map(|i| Particle::synthetic([i as f64, 0.0, -(i as f64)], i))
            .collect();
        let bytes = encode_particles(&ps);
        assert_eq!(bytes.len(), 100 * PARTICLE_BYTES);
        assert_eq!(decode_particles(&bytes).unwrap(), ps);
    }

    #[test]
    fn synthetic_fields_depend_on_id() {
        let a = Particle::synthetic([0.0; 3], 1);
        let b = Particle::synthetic([0.0; 3], 2);
        assert_ne!(a.density, b.density);
        assert_ne!(a.stress, b.stress);
    }

    #[test]
    fn decode_particles_rejects_ragged_buffer() {
        assert!(decode_particles(&[0u8; PARTICLE_BYTES + 1]).is_err());
    }

    #[test]
    fn record_table_spans_messages_and_rejects_ragged_ones() {
        let ps: Vec<Particle> = (0..5).map(|i| Particle::synthetic([0.0; 3], i)).collect();
        let messages = [
            encode_particles(&ps[..2]),
            Vec::new(),
            encode_particles(&ps[2..]),
        ];
        let table = record_table(&messages).unwrap();
        let ids: Vec<u64> = table.iter().map(|r| Particle::decode(r).id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        let ragged = [encode_particles(&ps), vec![0u8; PARTICLE_BYTES - 1]];
        assert!(matches!(record_table(&ragged), Err(SpioError::Format(_))));
    }

    /// The field order is the on-disk format: pin one record's bytes.
    #[test]
    fn encoded_layout_is_fixed() {
        let p = Particle::synthetic([1.0, 2.0, 3.0], 7);
        let mut record = [0u8; PARTICLE_BYTES];
        p.encode(&mut record);
        assert_eq!(record[..8], 1.0f64.to_le_bytes());
        assert_eq!(record[16..24], 3.0f64.to_le_bytes());
        assert_eq!(
            record[STRESS_OFFSET..STRESS_OFFSET + 8],
            1.75f64.to_le_bytes()
        );
        assert_eq!(record[88..96], 9.75f64.to_le_bytes());
        assert_eq!(
            record[DENSITY_OFFSET..VOLUME_OFFSET],
            p.density.to_le_bytes()
        );
        assert_eq!(record[VOLUME_OFFSET..ID_OFFSET], p.volume.to_le_bytes());
        assert_eq!(record[ID_OFFSET..120], 7u64.to_le_bytes());
        assert_eq!(record[120..], 3.0f32.to_le_bytes());
    }
}
