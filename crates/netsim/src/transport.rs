//! Client↔storage transport models.
//!
//! A [`TransportSpec`] captures how a compute node's NFS mount moves
//! bytes:
//!
//! * **NFS over TCP, single connection** (VAST on the LC clusters,
//!   §IV.B: "connected with the VAST CNodes over a single gateway node
//!   with a 2×100Gb Ethernet over a single TCP link"). One TCP stream
//!   tops out around a gigabyte per second no matter how wide the
//!   underlying pipe is, and every rank on the node shares it.
//! * **NFS over RDMA with `nconnect` and multipathing** (VAST on
//!   Wombat, §IV.B: "deployed using RDMA with nconnect=16 and
//!   multipathing enabled"). `nconnect` opens parallel connections,
//!   multipath spreads them over rails, and RDMA removes most per-op
//!   software latency — "allow the use of multiple network links between
//!   client and server and parallel data transfers despite the use of
//!   NFS" (§V.B).
//!
//! The transport yields two quantities consumed by storage-system
//! models when they provision a [`hcs_simkit::FlowNet`]: a per-node
//! connection capacity ([`TransportSpec::node_connection_bw`], where
//! `nconnect` enters) and a per-operation latency
//! ([`TransportSpec::per_op_latency`]).

use serde::{Deserialize, Serialize};

use hcs_simkit::units::{MSEC, USEC};

/// The protocol family of a mount.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// NFS over a TCP connection pool.
    TcpNfs,
    /// NFS over RDMA (RoCE or InfiniBand verbs).
    RdmaNfs,
    /// Native parallel-filesystem client (GPFS/Lustre kernel clients) —
    /// RDMA-class latency, many server connections.
    NativeClient,
    /// Node-local PCIe attachment — no network at all.
    Local,
}

/// A client transport configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransportSpec {
    /// Protocol family.
    pub kind: TransportKind,
    /// Parallel connections per client node (NFS `nconnect`, 1 for a
    /// plain TCP mount).
    pub nconnect: u32,
    /// Number of network paths (rails) the connections are spread over.
    pub multipath: u32,
    /// Peak bandwidth of one connection, bytes/s.
    pub per_stream_bw: f64,
    /// Fixed client-side latency added to every operation, seconds
    /// (RPC build, context switches, interrupt coalescing...).
    pub per_op_latency: f64,
    /// Extra per-operation latency for file metadata (open/close
    /// round-trips), seconds. Charged once per file, not per transfer.
    pub metadata_latency: f64,
}

impl TransportSpec {
    /// Single-connection NFS/TCP (the LC VAST deployments).
    ///
    /// A well-tuned single TCP stream over a 100 Gb path delivers on the
    /// order of 1.1 GB/s of NFS payload; per-op software latency is in
    /// the hundreds of microseconds.
    pub fn nfs_tcp_single() -> Self {
        TransportSpec {
            kind: TransportKind::TcpNfs,
            nconnect: 1,
            multipath: 1,
            per_stream_bw: 1.1e9,
            per_op_latency: 350.0 * USEC,
            metadata_latency: 2.5 * MSEC,
        }
    }

    /// NFS/RDMA with `nconnect` connections and multipathing (Wombat).
    pub fn nfs_rdma(nconnect: u32, multipath: u32) -> Self {
        TransportSpec {
            kind: TransportKind::RdmaNfs,
            nconnect: nconnect.max(1),
            multipath: multipath.max(1),
            per_stream_bw: 1.4e9,
            per_op_latency: 40.0 * USEC,
            metadata_latency: 300.0 * USEC,
        }
    }

    /// Native GPFS/Lustre kernel client.
    pub fn native_client() -> Self {
        TransportSpec {
            kind: TransportKind::NativeClient,
            nconnect: 8,
            multipath: 1,
            per_stream_bw: 2.5e9,
            per_op_latency: 60.0 * USEC,
            metadata_latency: 500.0 * USEC,
        }
    }

    /// Node-local PCIe attachment. The per-stream rate is a large
    /// finite stand-in for "memory-speed" (kept finite so configs
    /// serialize to JSON).
    pub fn local() -> Self {
        TransportSpec {
            kind: TransportKind::Local,
            nconnect: 1,
            multipath: 1,
            per_stream_bw: 64e9,
            per_op_latency: 8.0 * USEC,
            metadata_latency: 30.0 * USEC,
        }
    }

    /// Peak bandwidth of the node's connection pool, limited by the NIC:
    /// `min(nconnect × per_stream, multipath × nic_bw_per_rail ... )` —
    /// the pool cannot exceed what the rails deliver.
    ///
    /// `nic_bw` is the node's total NIC bandwidth across all rails the
    /// transport may use.
    pub fn node_connection_bw(&self, nic_bw: f64) -> f64 {
        let pool = self.per_stream_bw * self.nconnect as f64;
        pool.min(nic_bw)
    }

    /// Fixed latency charged to each operation of `transfer_size` bytes
    /// (the transfer time itself is paid in the flow model).
    pub fn per_op_latency(&self) -> f64 {
        self.per_op_latency
    }

    /// Effective per-stream bandwidth once per-op latency is folded in
    /// for back-to-back operations of `transfer_size` bytes.
    pub fn effective_stream_bw(&self, transfer_size: f64) -> f64 {
        assert!(transfer_size > 0.0, "transfer size must be positive");
        if !self.per_stream_bw.is_finite() {
            return transfer_size / self.per_op_latency.max(1e-12);
        }
        transfer_size / (transfer_size / self.per_stream_bw + self.per_op_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcs_simkit::units::MIB;

    #[test]
    fn tcp_pool_is_one_stream() {
        let t = TransportSpec::nfs_tcp_single();
        assert_eq!(t.node_connection_bw(12.5e9), 1.1e9);
    }

    #[test]
    fn rdma_pool_scales_with_nconnect_until_nic() {
        let t = TransportSpec::nfs_rdma(16, 2);
        // 16 × 1.4 GB/s = 22.4 GB/s, clipped by a 12.5 GB/s NIC.
        assert_eq!(t.node_connection_bw(12.5e9), 12.5e9);
        // Small NIC clips harder.
        assert_eq!(t.node_connection_bw(5e9), 5e9);
    }

    #[test]
    fn rdma_beats_tcp_per_node_by_large_factor() {
        // The §VII takeaway: ~8 GB/s RDMA vs ~1 GB/s TCP per node.
        let tcp = TransportSpec::nfs_tcp_single();
        let rdma = TransportSpec::nfs_rdma(16, 2);
        let nic = 12.5e9;
        let ratio = rdma.node_connection_bw(nic) / tcp.node_connection_bw(nic);
        assert!(ratio > 6.0, "ratio = {ratio}");
    }

    #[test]
    fn per_op_latency_hurts_small_transfers_on_tcp() {
        let tcp = TransportSpec::nfs_tcp_single();
        let big = tcp.effective_stream_bw(64.0 * MIB);
        let small = tcp.effective_stream_bw(0.15 * MIB); // 150 KB JPEG sample
        assert!(big > 0.95 * tcp.per_stream_bw);
        assert!(small < 0.35 * tcp.per_stream_bw, "small = {small}");
    }

    #[test]
    fn rdma_latency_penalty_much_smaller() {
        let tcp = TransportSpec::nfs_tcp_single();
        let rdma = TransportSpec::nfs_rdma(16, 2);
        let ts = 0.15 * MIB;
        let tcp_eff = tcp.effective_stream_bw(ts) / tcp.per_stream_bw;
        let rdma_eff = rdma.effective_stream_bw(ts) / rdma.per_stream_bw;
        assert!(rdma_eff > tcp_eff, "{rdma_eff} vs {tcp_eff}");
    }

    #[test]
    fn local_transport_is_latency_only() {
        let l = TransportSpec::local();
        assert!(l.node_connection_bw(1e9).is_finite()); // clipped by "NIC" = PCIe arg
        assert!(l.effective_stream_bw(MIB) > 0.0);
    }

    #[test]
    fn nconnect_zero_clamped_to_one() {
        let t = TransportSpec::nfs_rdma(0, 0);
        assert_eq!(t.nconnect, 1);
        assert_eq!(t.multipath, 1);
    }
}
