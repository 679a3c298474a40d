//! Quickstart: write a spatially-aware particle dataset with 8 simulated
//! ranks, then query it back by region and by level of detail.
//!
//! Run with: `cargo run --release --example quickstart`

use spatial_particle_io::prelude::*;
use spio_core::DatasetReader;

fn main() -> Result<(), SpioError> {
    // A dataset directory (FsStorage creates it).
    let dir = std::env::temp_dir().join("spio-quickstart");
    let storage = FsStorage::new(&dir);

    // The simulation: 8 processes in a 2×2×2 decomposition of the unit
    // cube, 10,000 particles each.
    let decomp =
        DomainDecomposition::uniform(Aabb3::new([0.0; 3], [1.0; 3]), GridDims::new(2, 2, 2));
    // Aggregate 2×2×1 patches per file ⇒ 2 data files.
    let config = WriterConfig::new(PartitionFactor::new(2, 2, 1));

    let d = decomp.clone();
    let s = storage.clone();
    run_threaded(8, move |comm| {
        let particles = uniform_patch_particles(&d, comm.rank(), 10_000, 42);
        let writer = SpatialWriter::new(d.clone(), config.clone());
        let stats = writer.write(&comm, &particles, &s).unwrap();
        if comm.rank() == 0 {
            println!(
                "rank 0: sent {} particles, aggregated {}, wrote {} bytes",
                stats.particles_sent, stats.particles_aggregated, stats.bytes_written
            );
        }
    })?;

    // Read side: open the dataset via its spatial metadata.
    let reader = DatasetReader::open(&storage)?;
    println!(
        "dataset: {} particles in {} files over {:?}",
        reader.meta.total_particles,
        reader.meta.entries.len(),
        reader.meta.domain
    );

    // Box query: only the files intersecting the region are opened.
    let query = Aabb3::new([0.0, 0.0, 0.0], [0.4, 0.4, 0.4]);
    let (particles, stats) = reader.read_box(&storage, &query)?;
    println!(
        "box query {:?}: {} particles from {} of {} files ({} bytes read)",
        query,
        particles.len(),
        stats.files_opened,
        reader.meta.entries.len(),
        stats.bytes_read
    );

    // Level-of-detail read: a file prefix is a uniform subsample.
    let mut lod = reader.lod_box_cursor(&reader.meta.domain, 1);
    let (coarse, _) = lod.read_next_level(&storage)?;
    println!(
        "LOD level 0: {} representative particles (of {})",
        coarse.len(),
        reader.meta.total_particles
    );
    let (next, _) = lod.read_next_level(&storage)?;
    println!("LOD level 1 appends {} more", next.len());

    println!("dataset files live in {}", dir.display());
    Ok(())
}
