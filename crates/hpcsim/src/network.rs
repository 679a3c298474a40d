//! Network timing model.
//!
//! Point-to-point messages follow the classic alpha-beta model — latency
//! plus bytes over bandwidth — with two congestion corrections that drive
//! the paper's machine-dependent aggregation behaviour (Fig. 6):
//!
//! * **ingest serialization**: all members of an aggregation group deliver
//!   into one aggregator NIC, so the group's data phase is serialized at
//!   the receiver;
//! * **group contention**: larger communication groups suffer growing link
//!   contention, scaled by a per-machine factor (`congestion_per_log2`).
//!   Mira's 5-D torus keeps this small; Theta's shared Dragonfly links and
//!   slower KNL cores make it large, which is why the paper finds smaller
//!   partition factors preferable on Theta.

/// Calibrated network constants for one machine.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Per-rank deliverable bandwidth, bytes/s (injection ≈ reception).
    pub rank_bw: f64,
    /// Extra contention per doubling of the communication group size:
    /// effective bandwidth is divided by `1 + c * log2(group)`.
    pub congestion_per_log2: f64,
    /// Machine-global aggregate bandwidth cap (bisection-flavoured),
    /// bytes/s.
    pub global_bw: f64,
}

impl NetModel {
    /// Congestion divisor for a group of `g` communicating ranks.
    pub fn contention(&self, g: usize) -> f64 {
        if g <= 1 {
            return 1.0;
        }
        1.0 + self.congestion_per_log2 * (g as f64).log2()
    }

    /// Time for one aggregation group: `g` senders delivering `bytes_each`
    /// into a single aggregator. Reception is serialized at the
    /// aggregator's NIC; latency pipelines, so one alpha per message.
    pub fn group_gather_time(&self, g: usize, bytes_each: u64) -> f64 {
        if g == 0 || bytes_each == 0 {
            return if g == 0 { 0.0 } else { g as f64 * self.alpha };
        }
        g as f64 * self.alpha + (g as f64 * bytes_each as f64) / self.rank_bw * self.contention(g)
    }

    /// Time for a group where senders contribute different amounts.
    pub fn group_gather_time_var(&self, byte_counts: &[u64]) -> f64 {
        let g = byte_counts.len();
        if g == 0 {
            return 0.0;
        }
        let total: u64 = byte_counts.iter().sum();
        g as f64 * self.alpha + total as f64 / self.rank_bw * self.contention(g)
    }

    /// Aggregation-phase time across many concurrent groups: groups run in
    /// parallel, bounded below by the slowest group and by the global
    /// bandwidth cap on the total cross-network volume.
    pub fn concurrent_groups_time(&self, group_times: &[f64], cross_bytes: u64) -> f64 {
        let slowest = group_times.iter().cloned().fold(0.0, f64::max);
        let global = cross_bytes as f64 / self.global_bw;
        slowest.max(global)
    }

    /// Recursive-doubling style all-gather of `block` bytes per rank over
    /// `n` ranks: log2(n) rounds of latency; every rank ultimately receives
    /// `n * block` bytes.
    pub fn allgather_time(&self, n: usize, block: u64) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let rounds = (n as f64).log2().ceil();
        rounds * self.alpha + (n as f64 * block as f64) / self.rank_bw
    }

    /// Metadata exchange: `g` tiny messages into one aggregator, latency
    /// dominated.
    pub fn meta_exchange_time(&self, g: usize) -> f64 {
        g as f64 * self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetModel {
        NetModel {
            alpha: 2e-6,
            rank_bw: 1.0e9,
            congestion_per_log2: 0.1,
            global_bw: 100.0e9,
        }
    }

    #[test]
    fn contention_grows_with_group() {
        let n = net();
        assert_eq!(n.contention(1), 1.0);
        assert!(n.contention(8) > n.contention(2));
        assert!((n.contention(8) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn gather_time_scales_with_group_and_bytes() {
        let n = net();
        let t1 = n.group_gather_time(8, 1 << 20);
        let t2 = n.group_gather_time(8, 1 << 21);
        let t3 = n.group_gather_time(16, 1 << 20);
        assert!(t2 > t1, "more bytes, more time");
        assert!(t3 > t1, "bigger group, more time (serialized ingest)");
        // 8 × 1 MiB at 1 GB/s with 1.3 contention ≈ 10.9 ms.
        assert!((t1 - (8.0 * 2e-6 + 8.0 * 1048576.0 / 1e9 * 1.3)).abs() < 1e-9);
    }

    #[test]
    fn group_of_one_is_contention_free() {
        let n = net();
        let t = n.group_gather_time(1, 1 << 20);
        assert!((t - (2e-6 + 1048576.0 / 1e9)).abs() < 1e-12);
    }

    #[test]
    fn variable_gather_matches_uniform_when_equal() {
        let n = net();
        let uniform = n.group_gather_time(4, 1000);
        let var = n.group_gather_time_var(&[1000, 1000, 1000, 1000]);
        assert!((uniform - var).abs() < 1e-12);
    }

    #[test]
    fn concurrent_groups_bounded_by_global_cap() {
        let n = net();
        // Tiny per-group times but a petabyte crossing the network.
        let t = n.concurrent_groups_time(&[0.001, 0.002], 1 << 50);
        assert!((t - (1u64 << 50) as f64 / 100.0e9).abs() < 1e-6);
        // Slowest group wins when volume is small.
        let t = n.concurrent_groups_time(&[0.5, 0.2], 1000);
        assert_eq!(t, 0.5);
    }

    #[test]
    fn collective_costs_grow_logarithmically() {
        let n = net();
        assert!(n.allgather_time(1024, 8) > n.allgather_time(16, 8));
        assert_eq!(n.allgather_time(1, 8), 0.0);
    }
}
