//! # gmh-icnt
//!
//! A flit-based crossbar interconnect model (fly topology, Table I)
//! connecting SIMT cores to L2 banks in the `gmh` GPU simulator.
//!
//! The crossbar is two independent sub-networks: the *request* network
//! (cores → L2 banks) and the *reply* network (L2 banks → cores). Packets
//! are segmented into flits of a per-network size; each input port injects
//! at most one flit per interconnect cycle and each output port accepts at
//! most one flit per cycle (up to [`IcntConfig::output_speedup`] flits from
//! distinct inputs when that is above 1), so a 128-byte load response takes
//! ⌈128/32⌉ = 4 cycles of link occupancy at the baseline 32 B flit size. Bounded
//! injection buffers propagate back-pressure to the L1 miss queues and L2
//! response queues — the dominant cause of L2 stalls in the paper (Fig. 8,
//! *bp-ICNT* 42%).
//!
//! The paper's cost-effective *asymmetric crossbar* (§VII-B) is expressed by
//! giving the two sub-networks different flit sizes: `16+48` means 16 B
//! request flits and 48 B reply flits.
//!
//! ## Example
//!
//! ```
//! use gmh_icnt::{Crossbar, IcntConfig};
//! use gmh_types::{AccessKind, LineAddr, MemFetch};
//!
//! let mut xbar = Crossbar::new(IcntConfig::baseline_32_32(), 2, 2);
//! let f = MemFetch::new(0, 0, 0, AccessKind::Load, LineAddr::new(5), 0);
//! xbar.request_mut().inject(0, 1, f, 8).unwrap();
//! for _ in 0..8 { xbar.cycle(); }
//! assert!(xbar.request_mut().pop_eject(1).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![warn(missing_docs)]

pub mod network;

pub use network::{Network, NetworkStats, MAX_PORTS};

use gmh_types::Cycle;

/// Crossbar configuration: flit sizes and buffering.
#[derive(Clone, Debug)]
pub struct IcntConfig {
    /// Request-network (core → L2) flit size in bytes.
    pub req_flit_bytes: u32,
    /// Reply-network (L2 → core) flit size in bytes.
    pub rep_flit_bytes: u32,
    /// Per-input injection buffer capacity, in flits.
    pub input_buffer_flits: usize,
    /// Per-output ejection buffer capacity, in packets.
    pub output_buffer_packets: usize,
    /// Router pipeline latency in interconnect cycles (route computation,
    /// allocation, switch traversal).
    pub router_latency: Cycle,
    /// Output speedup: flits each ejection port can accept per cycle
    /// (internal switch speedup; 1 = baseline crossbar).
    pub output_speedup: usize,
}

impl IcntConfig {
    /// The baseline symmetric crossbar: 32 B request + 32 B reply flits.
    pub fn baseline_32_32() -> Self {
        IcntConfig {
            req_flit_bytes: 32,
            rep_flit_bytes: 32,
            input_buffer_flits: 16,
            output_buffer_packets: 8,
            router_latency: 4,
            output_speedup: 1,
        }
    }

    /// An asymmetric crossbar with the given flit sizes (the paper's
    /// `16+48`, `16+68`, `32+52` cost-effective configurations).
    pub fn asymmetric(req_flit_bytes: u32, rep_flit_bytes: u32) -> Self {
        IcntConfig {
            req_flit_bytes,
            rep_flit_bytes,
            ..Self::baseline_32_32()
        }
    }

    /// Total point-to-point wire width in bytes (request + reply), the
    /// quantity the paper holds constant for the zero-cost `16+48` variant
    /// and uses to price the `16+68`/`32+52` variants.
    pub fn total_width_bytes(&self) -> u32 {
        self.req_flit_bytes + self.rep_flit_bytes
    }
}

/// The two-network crossbar connecting `n_cores` cores to `n_mem` L2 banks.
#[derive(Clone, Debug)]
pub struct Crossbar {
    request: Network,
    reply: Network,
}

impl Crossbar {
    /// Builds a crossbar for `n_cores` core ports and `n_mem` memory ports.
    pub fn new(cfg: IcntConfig, n_cores: usize, n_mem: usize) -> Self {
        Crossbar {
            request: Network::with_speedup(
                n_cores,
                n_mem,
                cfg.req_flit_bytes,
                cfg.input_buffer_flits,
                cfg.output_buffer_packets,
                cfg.router_latency,
                cfg.output_speedup,
            ),
            reply: Network::with_speedup(
                n_mem,
                n_cores,
                cfg.rep_flit_bytes,
                cfg.input_buffer_flits,
                cfg.output_buffer_packets,
                cfg.router_latency,
                cfg.output_speedup,
            ),
        }
    }

    /// The request (core → L2) network.
    pub fn request(&self) -> &Network {
        &self.request
    }

    /// The request network, mutably.
    pub fn request_mut(&mut self) -> &mut Network {
        &mut self.request
    }

    /// The reply (L2 → core) network.
    pub fn reply(&self) -> &Network {
        &self.reply
    }

    /// The reply network, mutably.
    pub fn reply_mut(&mut self) -> &mut Network {
        &mut self.reply
    }

    /// Advances both networks by one interconnect cycle.
    pub fn cycle(&mut self) {
        self.request.cycle();
        self.reply.cycle();
    }

    /// Splits the crossbar into its `(request, reply)` networks. They
    /// share no state (`cycle` above just steps both), and the simulator's
    /// event scheduler parks and wakes each on its own, so it stores them
    /// independently.
    pub fn into_parts(self) -> (Network, Network) {
        (self.request, self.reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmh_types::{AccessKind, LineAddr, MemFetch};

    fn load(id: u64) -> MemFetch {
        MemFetch::new(id, 0, 0, AccessKind::Load, LineAddr::new(id), 0)
    }

    #[test]
    fn asymmetric_config_total_width() {
        assert_eq!(IcntConfig::asymmetric(16, 48).total_width_bytes(), 64);
        assert_eq!(IcntConfig::baseline_32_32().total_width_bytes(), 64);
        assert_eq!(IcntConfig::asymmetric(16, 68).total_width_bytes(), 84);
    }

    #[test]
    fn request_and_reply_are_independent() {
        let mut x = Crossbar::new(IcntConfig::baseline_32_32(), 2, 2);
        x.request_mut().inject(0, 1, load(1), 8).unwrap();
        x.reply_mut().inject(1, 0, load(2), 136).unwrap();
        for _ in 0..16 {
            x.cycle();
        }
        assert_eq!(x.request_mut().pop_eject(1).unwrap().id, 1);
        assert_eq!(x.reply_mut().pop_eject(0).unwrap().id, 2);
    }
}
