//! # spio-bench
//!
//! The experiment harness: one module (and one binary) per table/figure of
//! the paper's evaluation, regenerating the same rows/series the paper
//! reports. Write-scaling and large-scale read experiments replay exact
//! `spio-core` plans through the `hpcsim` machine models; the LOD-quality
//! experiment (Fig. 9) runs the real writer/reader on the thread runtime.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig5_write_scaling`  | Fig. 5 — weak-scaling write throughput, Mira & Theta × {32 Ki, 64 Ki} particles/core |
//! | `fig6_time_breakdown` | Fig. 6 — aggregation vs file-I/O time split at 32 Ki processes |
//! | `fig7_read_scaling`   | Fig. 7 — visualization-read strong scaling, Theta & SSD workstation |
//! | `fig8_lod_reads`      | Fig. 8 — level-of-detail read time, 64 readers |
//! | `fig9_lod_quality`    | Fig. 9 — LOD fidelity proxy (density RMSE / coverage) on a jet dataset |
//! | `fig11_adaptive`      | Fig. 11 — adaptive vs non-adaptive aggregation under shrinking coverage |

pub mod ablation;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod read_bench;
pub mod regression;
pub mod table;

use spio_comm::{run_threaded_collect, ThreadComm};
use spio_types::SpioError;

/// Run `f` on `nprocs` thread ranks, failing if the job or any rank does.
pub(crate) fn run_ranks<T, F>(nprocs: usize, f: F) -> Result<Vec<T>, SpioError>
where
    F: Fn(ThreadComm) -> Result<T, SpioError> + Send + Sync + 'static,
    T: Send + 'static,
{
    run_threaded_collect(nprocs, f)?.into_iter().collect()
}

/// The paper's per-core workloads (§5.1): 32 Ki and 64 Ki particles per
/// process (≈4 MB and ≈8 MB at 124 B/particle).
pub const PARTICLES_PER_CORE: [u64; 2] = [32 * 1024, 64 * 1024];

/// The paper's weak-scaling process counts: 512 … 262 144 (§5.2).
pub const SCALING_PROCS: [usize; 10] = [
    512, 1024, 2048, 4096, 8192, 16_384, 32_768, 65_536, 131_072, 262_144,
];
