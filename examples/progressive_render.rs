//! Progressive refinement (the paper's Fig. 9 use case): load a
//! coal-injection-style jet dataset level by level and "render" an ASCII
//! density projection after each refinement step. Even the coarsest levels
//! show the plume's structure — the point of the LOD layout.
//!
//! Run with: `cargo run --release --example progressive_render`

use spatial_particle_io::prelude::*;
use spio_core::DatasetReader;
use spio_types::Particle;
use spio_workloads::{jet_patch_particles, JetSpec};

const RANKS: usize = 16;
const COLS: usize = 64;
const ROWS: usize = 20;

/// Project particles onto the x-y plane and draw an ASCII density map.
fn render(particles: &[Particle], domain: &Aabb3) -> String {
    let mut hist = vec![0u32; COLS * ROWS];
    let e = domain.extent();
    for p in particles {
        let cx = (((p.position[0] - domain.lo[0]) / e[0]) * COLS as f64) as usize;
        let cy = (((p.position[1] - domain.lo[1]) / e[1]) * ROWS as f64) as usize;
        hist[cx.min(COLS - 1) + COLS * cy.min(ROWS - 1)] += 1;
    }
    let max = *hist.iter().max().unwrap_or(&1) as f64;
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::with_capacity((COLS + 1) * ROWS);
    for row in 0..ROWS {
        for col in 0..COLS {
            let v = hist[col + COLS * row] as f64 / max;
            let idx = ((v.powf(0.4)) * (shades.len() - 1) as f64).round() as usize;
            out.push(shades[idx]);
        }
        out.push('\n');
    }
    out
}

fn main() -> Result<(), SpioError> {
    let dir = std::env::temp_dir().join("spio-progressive-render");
    let _ = std::fs::remove_dir_all(&dir);
    let storage = FsStorage::new(&dir);

    // Write a 300k-particle jet with adaptive aggregation.
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(4, 2, 2));
    let spec = JetSpec {
        total_particles: 300_000,
        ..JetSpec::default()
    };
    let d = decomp.clone();
    let s = storage.clone();
    run_threaded(RANKS, move |comm| {
        let particles = jet_patch_particles(&d, comm.rank(), &spec, 5);
        SpatialWriter::new(
            d.clone(),
            WriterConfig::new(PartitionFactor::new(2, 2, 2)).adaptive(true),
        )
        .write(&comm, &particles, &s)
        .unwrap();
    })?;

    // Progressive refinement: one reader appends level after level.
    let reader = DatasetReader::open(&storage)?;
    let mut lod = reader.lod_box_cursor(&reader.meta.domain, 1);
    let mut loaded: Vec<Particle> = Vec::new();
    let levels = lod.num_levels();
    for level in 0..levels {
        let (more, stats) = lod.read_next_level(&storage)?;
        loaded.extend(more);
        // Draw only a few snapshots to keep the output short.
        let frac = loaded.len() as f64 / reader.meta.total_particles as f64;
        if [4, 8, levels - 1].contains(&(level + 1)) || level + 1 == levels {
            println!(
                "after level {level}: {} particles loaded ({:.1}%), +{} bytes",
                loaded.len(),
                frac * 100.0,
                stats.bytes_read
            );
            println!("{}", render(&loaded, &reader.meta.domain));
        }
    }
    println!(
        "The plume silhouette is already visible at a few percent of the data; \
         each refinement only appends sequential bytes to what was read before."
    );
    Ok(())
}
