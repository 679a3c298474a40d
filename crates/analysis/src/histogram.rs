//! Attribute histograms — exact, or estimated from a level-of-detail
//! prefix. Estimating a density distribution from the first levels and
//! refining it later is the analysis analogue of progressive rendering
//! (§4), and the §3.5 attribute ranges give the natural bin bounds.

use spio_core::{DatasetReader, Storage};
use spio_types::{Particle, SpioError};

/// A fixed-bin 1-D histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<u64>,
    /// Samples outside `[lo, hi)`.
    pub outliers: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "need positive bins and a real range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    pub fn add(&mut self, value: f64) {
        if value < self.lo || value >= self.hi {
            self.outliers += 1;
            return;
        }
        let t = (value - self.lo) / (self.hi - self.lo);
        let bin = ((t * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    pub fn add_densities(&mut self, particles: &[Particle]) {
        for p in particles {
            self.add(p.density);
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.outliers
    }

    /// Normalized frequencies (empty histogram gives zeros).
    pub fn frequencies(&self) -> Vec<f64> {
        let total = self.total().max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// L1 distance between two histograms' frequency vectors (0 = same
    /// shape, 2 = disjoint).
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len(), "bin counts differ");
        self.frequencies()
            .iter()
            .zip(other.frequencies())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// Exact density histogram of a whole dataset, with bin bounds taken from
/// the recorded §3.5 attribute ranges when present.
pub fn density_histogram<S: Storage>(
    reader: &DatasetReader,
    storage: &S,
    bins: usize,
) -> Result<Histogram, SpioError> {
    let (lo, hi) = density_bounds(reader);
    let mut h = Histogram::new(lo, hi, bins);
    for entry in reader.meta.entries.clone() {
        let (ps, _) = reader.read_box(storage, &entry.bounds)?;
        h.add_densities(&ps);
    }
    Ok(h)
}

/// Density histogram estimated from a LOD prefix covering `fraction` of
/// the dataset — reads only verified proportional prefixes of every file.
pub fn density_histogram_lod<S: Storage>(
    reader: &DatasetReader,
    storage: &S,
    bins: usize,
    fraction: f64,
) -> Result<Histogram, SpioError> {
    let (lo, hi) = density_bounds(reader);
    let mut h = Histogram::new(lo, hi, bins);
    let total = reader.meta.total_particles;
    let target = (total as f64 * fraction.clamp(0.0, 1.0)).round() as u64;
    let (ps, _) = reader.read_lod_prefix(storage, target)?;
    h.add_densities(&ps);
    Ok(h)
}

fn density_bounds(reader: &DatasetReader) -> (f64, f64) {
    if let Some(ranges) = &reader.meta.attr_ranges {
        let lo = ranges
            .iter()
            .map(|r| r.density_min)
            .fold(f64::MAX, f64::min);
        let hi = ranges
            .iter()
            .map(|r| r.density_max)
            .fold(f64::MIN, f64::max);
        if lo < hi {
            // Nudge so the max lands inside the last half-open bin.
            return (lo, hi + (hi - lo) * 1e-9 + f64::MIN_POSITIVE);
        }
    }
    (0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spio_comm::{run_threaded_collect, Comm};
    use spio_core::{MemStorage, SpatialWriter, WriterConfig};
    use spio_types::{Aabb3, DomainDecomposition, GridDims, PartitionFactor};

    fn dataset() -> MemStorage {
        let storage = MemStorage::new();
        let s = storage.clone();
        let d =
            DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 1));
        run_threaded_collect(8, move |comm| {
            let b = d.patch_bounds(comm.rank());
            let n = 4000;
            let ps: Vec<Particle> = (0..n)
                .map(|i| {
                    let t = (i as f64 + 0.5) / n as f64;
                    let mut p = Particle::synthetic(
                        [
                            b.lo[0] + t * (b.hi[0] - b.lo[0]) * 0.999,
                            b.center()[1],
                            0.5,
                        ],
                        ((comm.rank() as u64) << 32) | i as u64,
                    );
                    // Bimodal density: half the ranks centered at 2, half at 8.
                    p.density = if comm.rank() % 2 == 0 { 2.0 } else { 8.0 } + t;
                    p
                })
                .collect();
            SpatialWriter::new(d.clone(), WriterConfig::new(PartitionFactor::new(2, 2, 1)))
                .write(&comm, &ps, &s)
                .unwrap();
        })
        .unwrap();
        storage
    }

    #[test]
    fn histogram_mechanics() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0] {
            h.add(v);
        }
        assert_eq!(h.counts, vec![2, 1, 0, 0, 1]);
        assert_eq!(h.outliers, 2);
        assert_eq!(h.total(), 6);
        let f = h.frequencies();
        assert!((f[0] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn exact_histogram_is_bimodal_and_complete() {
        let storage = dataset();
        let reader = DatasetReader::open(&storage).unwrap();
        let h = density_histogram(&reader, &storage, 10).unwrap();
        assert_eq!(h.total(), 32_000);
        assert_eq!(h.outliers, 0, "attr-range bounds must cover everything");
        // Two humps: mass near the low and high ends, a gap between.
        let f = h.frequencies();
        let low: f64 = f[..3].iter().sum();
        let mid: f64 = f[4..6].iter().sum();
        let high: f64 = f[7..].iter().sum();
        assert!(low > 0.3 && high > 0.3, "bimodal: {f:?}");
        assert!(mid < 0.15, "gap between modes: {f:?}");
    }

    #[test]
    fn lod_estimate_converges_to_exact() {
        let storage = dataset();
        let reader = DatasetReader::open(&storage).unwrap();
        let exact = density_histogram(&reader, &storage, 16).unwrap();
        let rough = density_histogram_lod(&reader, &storage, 16, 0.02).unwrap();
        let fine = density_histogram_lod(&reader, &storage, 16, 0.5).unwrap();
        let full = density_histogram_lod(&reader, &storage, 16, 1.0).unwrap();
        let d_rough = exact.l1_distance(&rough);
        let d_fine = exact.l1_distance(&fine);
        let d_full = exact.l1_distance(&full);
        assert!(d_full < 1e-12, "100% prefix is exact: {d_full}");
        assert!(d_fine <= d_rough + 1e-9, "{d_rough} → {d_fine}");
        assert!(d_rough < 0.5, "even 2% is a usable estimate: {d_rough}");
        // And the rough estimate read ~2% of the data.
        assert!(rough.total() < exact.total() / 20);
    }

    #[test]
    fn lod_estimate_verifies_checksums() {
        let storage = dataset();
        let reader = DatasetReader::open(&storage).unwrap();
        let name = reader.meta.entries[0].file_name();
        let mut bytes = storage.read_file(&name).unwrap();
        // One bit of the first particle record's payload.
        bytes[spio_format::data_file::HEADER_BYTES + 3] ^= 0x10;
        storage.write_file(&name, &bytes).unwrap();
        assert!(matches!(
            density_histogram_lod(&reader, &storage, 16, 1.0),
            Err(SpioError::Format(_))
        ));
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn l1_distance_shape_mismatch_panics() {
        let a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 5);
        a.l1_distance(&b);
    }
}
