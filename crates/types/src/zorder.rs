//! Z-order (Morton) curves.
//!
//! §3 of the paper contrasts structured-grid formats, where "voxels can be
//! mapped to locations in the file using some ordering scheme, e.g.,
//! row-order, Z-order, or HZ-order", with unstructured particles. The
//! spatially-aware format does not need a per-particle curve, but Z-order
//! is still useful at *file* granularity: the spatial index sorts file
//! centres along the curve so that neighbouring leaves hold neighbouring
//! files.

/// Interleave the low 21 bits of `x`, `y`, `z` into a 63-bit Morton code.
///
/// ```
/// use spio_types::zorder::morton3;
/// // x = 0b11, y = 0b101, z = 0b1: bit i of x, y, z lands at 3i, 3i+1, 3i+2.
/// assert_eq!(morton3(3, 5, 1), 0b010_001_111);
/// ```
pub fn morton3(x: u32, y: u32, z: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        // Spread the low 21 bits out to every third bit position.
        let mut v = (v as u64) & 0x1F_FFFF;
        v = (v | (v << 32)) & 0x1F00000000FFFF;
        v = (v | (v << 16)) & 0x1F0000FF0000FF;
        v = (v | (v << 8)) & 0x100F00F00F00F00F;
        v = (v | (v << 4)) & 0x10C30C30C30C30C3;
        v = (v | (v << 2)) & 0x1249249249249249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_small_codes() {
        assert_eq!(morton3(0, 0, 0), 0);
        assert_eq!(morton3(1, 0, 0), 0b001);
        assert_eq!(morton3(0, 1, 0), 0b010);
        assert_eq!(morton3(0, 0, 1), 0b100);
        assert_eq!(morton3(1, 1, 1), 0b111);
        assert_eq!(morton3(2, 0, 0), 0b001_000);
        assert_eq!(morton3(3, 3, 3), 0b111_111);
    }

    #[test]
    fn matches_bitwise_interleave_up_to_21_bits() {
        let reference = |x: u32, y: u32, z: u32| {
            (0..21).fold(0u64, |code, i| {
                code | (u64::from(x >> i & 1) << (3 * i))
                    | (u64::from(y >> i & 1) << (3 * i + 1))
                    | (u64::from(z >> i & 1) << (3 * i + 2))
            })
        };
        for &(x, y, z) in &[
            (0u32, 0, 0),
            (1, 2, 3),
            (255, 13, 200),
            (0x1F_FFFF, 0, 0x1F_FFFF),
            (123_456, 654_321 & 0x1F_FFFF, 42),
        ] {
            assert_eq!(morton3(x, y, z), reference(x, y, z));
        }
    }

    #[test]
    fn zorder_is_monotone_in_octants() {
        // All points in the low octant precede all points in the high one.
        let lo = morton3(3, 3, 3);
        let hi = morton3(4, 0, 0);
        assert!(lo < hi, "octant boundary ordering");
    }
}
