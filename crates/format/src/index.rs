//! Spatial file index: a z-order-sorted bounding-volume hierarchy over the
//! metadata's file boxes.
//!
//! [`SpatialMetadata::files_intersecting`] scans every entry on every query
//! — fine for one-shot reads, linear cost for a serving engine answering
//! thousands of box queries against a many-thousand-file dataset. The index
//! is built once per dataset: entries are sorted along the Z-order curve of
//! their box centers (the same curve the LOD reader-assignment uses, so
//! spatially close files land in the same subtree), and an implicit binary
//! tree of union boxes is layered on top. A query descends only into
//! subtrees whose union box intersects it: O(log n + k) for the disjoint
//! boxes the aggregation scheme produces.
//!
//! Results are returned in ascending entry order — exactly the order of the
//! linear scan — so callers that assemble per-file results positionally get
//! byte-identical output to the scan-based read path. The linear scan stays
//! as the test oracle.

use crate::meta::SpatialMetadata;
use spio_types::zorder::morton3;
use spio_types::Aabb3;

/// Entries per leaf. Small enough that a leaf test is a handful of box
/// intersections, large enough that the node array stays compact.
const LEAF_SIZE: usize = 8;

/// Sentinel child id marking a leaf node.
const NO_CHILD: u32 = u32::MAX;

/// Resolution of the center quantization feeding the Morton code
/// (21 bits per axis is the most `morton3` interleaves into 64 bits).
const ZRES: f64 = (1u64 << 21) as f64;

struct Node {
    /// Union of the boxes of every entry under this node.
    bounds: Aabb3,
    /// Range of `order` this node covers (leaves only scan it directly).
    start: u32,
    end: u32,
    /// Child node ids; `NO_CHILD` for leaves (both or neither).
    left: u32,
    right: u32,
}

/// The immutable index over one dataset's file boxes.
pub struct SpatialIndex {
    /// Entry indices sorted along the Z-order curve of their box centers.
    order: Vec<u32>,
    /// Entry bounds, stored positionally along `order` for locality.
    boxes: Vec<Aabb3>,
    nodes: Vec<Node>,
    /// Root node id (meaningless when `nodes` is empty).
    root: u32,
}

impl SpatialIndex {
    /// Build the index from a dataset's metadata.
    pub fn build(meta: &SpatialMetadata) -> SpatialIndex {
        let boxes: Vec<Aabb3> = meta.entries.iter().map(|e| e.bounds).collect();
        Self::from_boxes(&boxes)
    }

    /// Build from bare boxes (index `i` of the result refers to `boxes[i]`).
    pub fn from_boxes(boxes: &[Aabb3]) -> SpatialIndex {
        if boxes.is_empty() {
            return SpatialIndex {
                order: Vec::new(),
                boxes: Vec::new(),
                nodes: Vec::new(),
                root: 0,
            };
        }
        // Quantize centers against the union of the boxes rather than a
        // caller-supplied domain: robust to metadata whose header domain
        // is stale or wider than the data.
        let union = boxes.iter().fold(Aabb3::empty(), |a, b| a.union(b));
        let extent = union.extent();
        let mut keyed: Vec<(u64, u32)> = boxes
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let c = b.center();
                let mut q = [0u32; 3];
                for a in 0..3 {
                    let t = if extent[a] > 0.0 {
                        ((c[a] - union.lo[a]) / extent[a]).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    q[a] = (t * (ZRES - 1.0)) as u32;
                }
                (morton3(q[0], q[1], q[2]), i as u32)
            })
            .collect();
        // Tie-break on the entry id so the build is fully deterministic.
        keyed.sort_unstable();
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        let sorted_boxes: Vec<Aabb3> = order.iter().map(|&i| boxes[i as usize]).collect();
        let mut nodes = Vec::with_capacity(2 * order.len() / LEAF_SIZE + 2);
        let root = build_node(&mut nodes, &sorted_boxes, 0, order.len());
        SpatialIndex {
            order,
            boxes: sorted_boxes,
            nodes,
            root,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Indices of entries whose bounds intersect `query`, ascending — the
    /// same set, in the same order, as the linear
    /// [`SpatialMetadata::files_intersecting`] scan.
    pub fn query(&self, query: &Aabb3) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(query, &mut out);
        out
    }

    /// [`SpatialIndex::query`] into a reusable buffer (cleared first).
    pub fn query_into(&self, query: &Aabb3, out: &mut Vec<usize>) {
        out.clear();
        if self.nodes.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.bounds.intersects(query) {
                continue;
            }
            if node.left == NO_CHILD {
                for i in node.start as usize..node.end as usize {
                    if self.boxes[i].intersects(query) {
                        out.push(self.order[i] as usize);
                    }
                }
            } else {
                stack.push(node.left);
                stack.push(node.right);
            }
        }
        // Ascending entry order restores exact parity with the linear scan.
        out.sort_unstable();
    }
}

/// Recursively build the tree over `boxes[start..end)` (positions along the
/// z-order), returning the new node's id.
fn build_node(nodes: &mut Vec<Node>, boxes: &[Aabb3], start: usize, end: usize) -> u32 {
    let bounds = boxes[start..end]
        .iter()
        .fold(Aabb3::empty(), |a, b| a.union(b));
    let id = nodes.len() as u32;
    if end - start <= LEAF_SIZE {
        nodes.push(Node {
            bounds,
            start: start as u32,
            end: end as u32,
            left: NO_CHILD,
            right: NO_CHILD,
        });
        return id;
    }
    nodes.push(Node {
        bounds,
        start: start as u32,
        end: end as u32,
        left: NO_CHILD,
        right: NO_CHILD,
    });
    let mid = start + (end - start) / 2;
    let left = build_node(nodes, boxes, start, mid);
    let right = build_node(nodes, boxes, mid, end);
    nodes[id as usize].left = left;
    nodes[id as usize].right = right;
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::FileEntry;
    use crate::LodParams;
    use spio_types::{GridDims, PartitionFactor};
    use spio_util::cases;

    /// A grid of disjoint tiles, like aggregation produces.
    fn grid_metadata(nx: usize, ny: usize) -> SpatialMetadata {
        let domain = Aabb3::new([0.0; 3], [1.0, 1.0, 1.0]);
        let mut entries = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                let lo = [x as f64 / nx as f64, y as f64 / ny as f64, 0.0];
                let hi = [(x + 1) as f64 / nx as f64, (y + 1) as f64 / ny as f64, 1.0];
                entries.push(FileEntry {
                    agg_rank: (y * nx + x) as u64,
                    particle_count: 10,
                    bounds: Aabb3::new(lo, hi),
                });
            }
        }
        let total = entries.len() as u64 * 10;
        SpatialMetadata {
            domain,
            writer_grid: GridDims::new(nx, ny, 1),
            partition_factor: PartitionFactor::new(1, 1, 1),
            lod: LodParams::default(),
            total_particles: total,
            entries,
            attr_ranges: None,
        }
    }

    #[test]
    fn matches_linear_scan_on_grid() {
        let meta = grid_metadata(8, 8);
        let index = SpatialIndex::build(&meta);
        assert_eq!(index.len(), 64);
        let queries = [
            Aabb3::new([0.0; 3], [1.0; 3]),
            Aabb3::new([0.1, 0.1, 0.0], [0.2, 0.2, 1.0]),
            Aabb3::new([0.45, 0.45, 0.3], [0.55, 0.55, 0.6]),
            Aabb3::new([2.0; 3], [3.0; 3]),
            Aabb3::new([0.0, 0.0, 0.0], [0.01, 1.0, 1.0]),
        ];
        for q in &queries {
            assert_eq!(index.query(q), meta.files_intersecting(q), "query {q:?}");
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let mut meta = grid_metadata(2, 2);
        meta.entries.clear();
        meta.total_particles = 0;
        let index = SpatialIndex::build(&meta);
        assert!(index.is_empty());
        assert!(index.query(&Aabb3::new([0.0; 3], [1.0; 3])).is_empty());
    }

    #[test]
    fn random_boxes_match_oracle_even_when_overlapping() {
        // The index must agree with the scan for arbitrary (not necessarily
        // disjoint) boxes: correctness does not rely on the §3.5 guarantee.
        cases(64, |g| {
            let n = g.usize_in(1, 40);
            let boxes: Vec<Aabb3> = (0..n)
                .map(|_| {
                    let lo = g.f64x3(-1.0, 1.0);
                    let ext = g.f64x3(0.0, 0.8);
                    Aabb3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]])
                })
                .collect();
            let index = SpatialIndex::from_boxes(&boxes);
            for _ in 0..8 {
                let lo = g.f64x3(-1.2, 1.2);
                let ext = g.f64x3(0.0, 1.5);
                let q = Aabb3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]]);
                let oracle: Vec<usize> = boxes
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.intersects(&q))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(index.query(&q), oracle);
            }
        });
    }

    #[test]
    fn query_into_reuses_buffer() {
        let meta = grid_metadata(4, 4);
        let index = SpatialIndex::build(&meta);
        let mut buf = vec![99usize; 3];
        index.query_into(&Aabb3::new([0.0; 3], [0.3; 3]), &mut buf);
        assert_eq!(
            buf,
            meta.files_intersecting(&Aabb3::new([0.0; 3], [0.3; 3]))
        );
    }
}
