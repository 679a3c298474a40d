//! Checked little-endian field reads for the on-disk and on-wire decoders.
//!
//! Every fixed-width field of a spio file or message is read through these
//! helpers, so a buffer that ends before the field does is a
//! [`SpioError::Format`] rather than a slice-index panic.

use crate::aabb::Aabb3;
use crate::error::SpioError;

/// The `N` bytes starting at offset `at`.
fn array_at<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], SpioError> {
    bytes
        .get(at..)
        .and_then(|rest| rest.first_chunk::<N>())
        .copied()
        .ok_or_else(|| {
            SpioError::Format(format!(
                "buffer truncated: {N}-byte field at offset {at}, buffer is {} bytes",
                bytes.len()
            ))
        })
}

pub fn u32_at(bytes: &[u8], at: usize) -> Result<u32, SpioError> {
    array_at(bytes, at).map(u32::from_le_bytes)
}

pub fn u64_at(bytes: &[u8], at: usize) -> Result<u64, SpioError> {
    array_at(bytes, at).map(u64::from_le_bytes)
}

pub fn f64_at(bytes: &[u8], at: usize) -> Result<f64, SpioError> {
    array_at(bytes, at).map(f64::from_le_bytes)
}

/// A box stored as six `f64`s from offset `at`: `lo` then `hi`.
pub fn aabb_at(bytes: &[u8], at: usize) -> Result<Aabb3, SpioError> {
    let mut v = [0.0; 6];
    for (i, x) in v.iter_mut().enumerate() {
        *x = f64_at(bytes, at.saturating_add(i * 8))?;
    }
    let [l0, l1, l2, h0, h1, h2] = v;
    Ok(Aabb3 {
        lo: [l0, l1, l2],
        hi: [h0, h1, h2],
    })
}

/// The `u64`s filling `bytes` exactly, or an error if a word is cut short.
pub fn u64_words(bytes: &[u8]) -> Result<Vec<u64>, SpioError> {
    let (words, tail) = bytes.as_chunks::<8>();
    if !tail.is_empty() {
        return Err(SpioError::Format(format!(
            "{} bytes is not a whole number of 8-byte words",
            bytes.len()
        )));
    }
    Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_and_rejects_short_buffers() {
        let mut b = 7u32.to_le_bytes().to_vec();
        b.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(u32_at(&b, 0).unwrap(), 7);
        assert_eq!(u64_at(&b, 4).unwrap(), 9);
        assert!(u64_at(&b, 5).is_err());
        assert!(u32_at(&b, usize::MAX).is_err());
        assert_eq!(u64_words(&b[4..]).unwrap(), vec![9]);
        assert!(u64_words(&b).is_err());
    }
}
