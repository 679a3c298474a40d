//! Integer grid math: process grids and the aggregation partition factor.

use crate::error::SpioError;

/// Dimensions of a 3-D grid of patches/processes (`nx × ny × nz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl GridDims {
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
        GridDims { nx, ny, nz }
    }

    /// Total cell count.
    pub fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn as_array(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Row-major (x fastest) linear index of cell `(i, j, k)`.
    pub fn linearize(&self, idx: [usize; 3]) -> usize {
        debug_assert!(idx[0] < self.nx && idx[1] < self.ny && idx[2] < self.nz);
        idx[0] + self.nx * (idx[1] + self.ny * idx[2])
    }

    /// Inverse of [`GridDims::linearize`].
    pub fn delinearize(&self, lin: usize) -> [usize; 3] {
        debug_assert!(lin < self.count());
        let i = lin % self.nx;
        let j = (lin / self.nx) % self.ny;
        let k = lin / (self.nx * self.ny);
        [i, j, k]
    }

    /// Iterate all cell indices in linear order.
    pub fn iter(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        (0..self.count()).map(move |l| self.delinearize(l))
    }

    /// Factor `n` processes into a near-cubic `nx × ny × nz` grid
    /// (largest factors on z, like MPI_Dims_create with reversed output).
    pub fn near_cubic(n: usize) -> Self {
        assert!(n > 0);
        let mut best = GridDims::new(n, 1, 1);
        let mut best_score = usize::MAX;
        for a in 1..=n {
            if !n.is_multiple_of(a) {
                continue;
            }
            let rem = n / a;
            for b in 1..=rem {
                if !rem.is_multiple_of(b) {
                    continue;
                }
                let c = rem / b;
                let score = a.max(b).max(c) - a.min(b).min(c);
                if score < best_score {
                    best_score = score;
                    best = GridDims::new(a, b, c);
                }
            }
        }
        best
    }
}

/// The aggregation partition factor `(Px, Py, Pz)` of §3.1: the ratio of an
/// aggregation partition's size to the simulation's per-process patch size
/// along each axis.
///
/// Larger factors mean more communication during aggregation and fewer,
/// larger output files; `(1,1,1)` degenerates to file-per-process and a
/// whole-domain partition degenerates to single-shared-file I/O (Fig. 3).
/// The best value is machine- and workload-dependent, so it is exposed as a
/// user tuning parameter throughout this workspace.
///
/// ```
/// use spio_types::{GridDims, PartitionFactor};
/// // §3.1's example: 4×4 processes at factor 2×2 produce 4 files.
/// let procs = GridDims::new(4, 4, 1);
/// assert_eq!(PartitionFactor::new(2, 2, 1).file_count(procs), 4);
/// // (1,1,1) degenerates to file-per-process.
/// assert_eq!(PartitionFactor::new(1, 1, 1).file_count(procs), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionFactor {
    pub px: usize,
    pub py: usize,
    pub pz: usize,
}

impl PartitionFactor {
    pub fn new(px: usize, py: usize, pz: usize) -> Self {
        assert!(
            px > 0 && py > 0 && pz > 0,
            "partition factor must be positive"
        );
        PartitionFactor { px, py, pz }
    }

    /// Processes (patches) grouped into one aggregation partition.
    pub fn group_size(&self) -> usize {
        self.px * self.py * self.pz
    }

    pub fn as_array(&self) -> [usize; 3] {
        [self.px, self.py, self.pz]
    }

    /// Number of aggregation partitions — and therefore output files —
    /// produced for a `procs` process grid: `f = (nx/Px)·(ny/Py)·(nz/Pz)`
    /// (§3.1). Partial partitions at the domain edge are rounded up, which
    /// also covers process grids that are not exact multiples of the factor.
    pub fn file_count(&self, procs: GridDims) -> usize {
        self.partition_dims(procs).count()
    }

    /// Dimensions of the aggregation grid for a given process grid.
    pub fn partition_dims(&self, procs: GridDims) -> GridDims {
        GridDims::new(
            procs.nx.div_ceil(self.px),
            procs.ny.div_ceil(self.py),
            procs.nz.div_ceil(self.pz),
        )
    }

    /// Check the factor fits the process grid (no axis exceeds it).
    pub fn validate(&self, procs: GridDims) -> Result<(), SpioError> {
        if self.px > procs.nx || self.py > procs.ny || self.pz > procs.nz {
            return Err(SpioError::Config(format!(
                "partition factor {:?} exceeds process grid {:?}",
                self.as_array(),
                procs.as_array()
            )));
        }
        Ok(())
    }

    /// Parse from strings like `"2x2x4"` or `"2,2,4"`.
    pub fn parse(s: &str) -> Result<Self, SpioError> {
        let parts: Vec<&str> = s.split(['x', 'X', ',']).collect();
        if parts.len() != 3 {
            return Err(SpioError::Config(format!(
                "cannot parse partition factor from '{s}'"
            )));
        }
        let mut v = [0usize; 3];
        for (slot, part) in v.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse()
                .map_err(|_| SpioError::Config(format!("bad axis in '{s}'")))?;
        }
        if v.contains(&0) {
            return Err(SpioError::Config(format!("zero axis in '{s}'")));
        }
        Ok(PartitionFactor::new(v[0], v[1], v[2]))
    }
}

impl std::fmt::Display for PartitionFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.px, self.py, self.pz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip() {
        let g = GridDims::new(4, 3, 2);
        for l in 0..g.count() {
            assert_eq!(g.linearize(g.delinearize(l)), l);
        }
    }

    #[test]
    fn near_cubic_factorizations() {
        assert_eq!(GridDims::near_cubic(8), GridDims::new(2, 2, 2));
        assert_eq!(GridDims::near_cubic(64), GridDims::new(4, 4, 4));
        let g = GridDims::near_cubic(512);
        assert_eq!(g.count(), 512);
        assert_eq!(g, GridDims::new(8, 8, 8));
        // 2^18 = 262144 — the paper's largest run.
        let g = GridDims::near_cubic(262_144);
        assert_eq!(g.count(), 262_144);
        let a = g.as_array();
        assert!(a.iter().max().unwrap() / a.iter().min().unwrap() <= 2);
    }

    #[test]
    fn file_count_formula_matches_paper_examples() {
        // §3.1 worked example: 4×4 = 16 processes, factor 2×2 ⇒ (4/2)(4/2) = 4
        // files (paper Fig. 3e). The 2-D paper examples use nz = 1 here.
        let procs = GridDims::new(4, 4, 1);
        assert_eq!(PartitionFactor::new(2, 2, 1).file_count(procs), 4);
        // Fig. 3 labels aggregation-grid *dimensions*; as factors:
        // 2×4 partitions ⇔ factor (2,1) ⇒ 8 files (Fig. 3b),
        assert_eq!(PartitionFactor::new(2, 1, 1).file_count(procs), 8);
        // 1×4 partitions ⇔ factor (4,1) ⇒ 4 files (Fig. 3c),
        assert_eq!(PartitionFactor::new(4, 1, 1).file_count(procs), 4);
        // 4×4 partitions ⇔ factor (1,1) ⇒ file-per-process, 16 files (Fig. 3d),
        assert_eq!(PartitionFactor::new(1, 1, 1).file_count(procs), 16);
        // whole-domain partition ⇔ factor (4,4) ⇒ single shared file (Fig. 3f).
        assert_eq!(PartitionFactor::new(4, 4, 1).file_count(procs), 1);
    }

    #[test]
    fn file_count_section4_example() {
        // §4: 64 Ki processes, (2,2,2) ⇒ 8 Ki files.
        let procs = GridDims::near_cubic(65_536);
        assert_eq!(PartitionFactor::new(2, 2, 2).file_count(procs), 65_536 / 8);
    }

    #[test]
    fn partial_partitions_round_up() {
        let procs = GridDims::new(5, 4, 1);
        // 5/2 ⇒ 3 partitions along x.
        assert_eq!(PartitionFactor::new(2, 2, 1).file_count(procs), 6);
    }

    #[test]
    fn validate_rejects_oversized_factor() {
        let procs = GridDims::new(2, 2, 2);
        assert!(PartitionFactor::new(4, 1, 1).validate(procs).is_err());
        assert!(PartitionFactor::new(2, 2, 2).validate(procs).is_ok());
    }

    #[test]
    fn parse_formats() {
        assert_eq!(
            PartitionFactor::parse("2x2x4").unwrap(),
            PartitionFactor::new(2, 2, 4)
        );
        assert_eq!(
            PartitionFactor::parse("1,2,2").unwrap(),
            PartitionFactor::new(1, 2, 2)
        );
        assert!(PartitionFactor::parse("2x2").is_err());
        assert!(PartitionFactor::parse("0x1x1").is_err());
        assert_eq!(PartitionFactor::new(2, 4, 4).to_string(), "2x4x4");
    }
}
