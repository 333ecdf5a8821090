//! Timing parameters for the GM substrate, with presets for the paper's two
//! Myrinet clusters.
//!
//! Each cost names one unit of work the Myrinet Control Program (or the host
//! library / PCI bus) performs. NIC costs are expressed in nanoseconds *at a
//! reference LANai clock* and scaled by the actual clock when a preset is
//! built, which is how the LANai-9.1 (133 MHz) and LANai-XP (225 MHz)
//! presets differ on the NIC side; host-side costs differ with the host CPU
//! (700 MHz P-III vs 2.4 GHz Xeon) and the bus (66 MHz PCI vs PCI-X).
//!
//! **Calibration.** The absolute values are chosen so the simulated
//! host-based and NIC-based barrier latencies land near the paper's measured
//! curves (Figs. 5–6); see `EXPERIMENTS.md` for the paper-vs-simulated
//! comparison. The *structure* (which costs the collective protocol skips)
//! is what produces the NIC-vs-host gap; the constants only set the scale.

use nicbar_net::LinkTiming;
use nicbar_sim::SimTime;

/// All timing and sizing parameters of a GM/Myrinet cluster model.
#[derive(Clone, Debug)]
pub struct GmParams {
    // --- Host library -----------------------------------------------------
    /// Host CPU cost of a `gm_send` call (descriptor build).
    pub host_send_overhead: SimTime,
    /// Host CPU cost of polling + dispatching one receive event.
    pub host_recv_poll: SimTime,
    /// Host CPU cost of posting a collective (barrier) doorbell.
    pub host_coll_call: SimTime,
    /// Host CPU cost to repost a receive buffer.
    pub host_repost: SimTime,

    // --- PCI / PCI-X bus --------------------------------------------------
    /// Programmed-I/O write crossing the bus (doorbells).
    pub pio_write: SimTime,
    /// Fixed DMA setup cost per transfer (either direction).
    pub dma_setup: SimTime,
    /// DMA cost per byte moved across the bus.
    pub dma_ns_per_byte: f64,
    /// Cost for the NIC to DMA a completion/receive event record to host
    /// memory where polling finds it.
    pub host_event_dma: SimTime,

    // --- LANai processor (point-to-point protocol work) --------------------
    /// Translate a host send event into a send token and enqueue it.
    pub nic_token_create: SimTime,
    /// One pass of the round-robin destination scheduler.
    pub nic_sched_pass: SimTime,
    /// Claim (and later release) a send packet buffer.
    pub nic_packet_claim: SimTime,
    /// Final header fixup + injection of a packet into the wire.
    pub nic_inject: SimTime,
    /// Sequence-number check on an arriving packet.
    pub nic_seq_check: SimTime,
    /// Locate and consume a receive token.
    pub nic_recv_match: SimTime,
    /// Create a send record for one outgoing packet.
    pub nic_record_create: SimTime,
    /// Generate an ACK (written into the per-peer static packet).
    pub nic_ack_gen: SimTime,
    /// Process an incoming ACK (retire send records, free buffers).
    pub nic_ack_process: SimTime,

    // --- LANai processor (collective protocol work) ------------------------
    /// Emit one collective packet from the group's static packet (no queue
    /// traversal, no buffer claim).
    pub nic_coll_send: SimTime,
    /// Receive one collective packet: bit-vector update + trigger check.
    pub nic_coll_recv: SimTime,

    // --- Sizing -----------------------------------------------------------
    /// Send packet buffers in NIC SRAM.
    pub send_packet_pool: usize,
    /// Maximum unacknowledged data packets per destination.
    pub window: usize,
    /// Maximum payload per data packet.
    pub mtu: u32,

    // --- Reliability ------------------------------------------------------
    /// Sender retransmission timeout for unacked data packets.
    pub ack_timeout: SimTime,
    /// Receiver-driven NACK timeout for missing collective packets.
    pub coll_timeout: SimTime,
    /// Granularity of the NIC's timer sweep.
    pub timer_interval: SimTime,

    // --- Network ----------------------------------------------------------
    /// Ports per crossbar switch of the wormhole Clos the nodes hang off
    /// (16 on Myrinet 2000).
    pub crossbar_radix: usize,
    /// Wormhole link/switch timing.
    pub link: LinkTiming,
}

impl GmParams {
    /// The paper's 8-node cluster: dual 2.4 GHz Xeon, PCI-X 133 MHz/64-bit,
    /// LANai-XP (225 MHz) NICs, GM-2.0.3.
    pub fn lanai_xp() -> Self {
        GmParams {
            host_send_overhead: SimTime::from_us(0.60),
            host_recv_poll: SimTime::from_us(0.60),
            host_coll_call: SimTime::from_us(0.50),
            host_repost: SimTime::from_us(0.15),

            pio_write: SimTime::from_us(0.50),
            dma_setup: SimTime::from_us(1.20),
            dma_ns_per_byte: 1.0, // ~1 GB/s PCI-X
            host_event_dma: SimTime::from_us(1.10),

            nic_token_create: SimTime::from_us(1.20),
            nic_sched_pass: SimTime::from_us(0.50),
            nic_packet_claim: SimTime::from_us(1.00),
            nic_inject: SimTime::from_us(0.60),
            nic_seq_check: SimTime::from_us(0.55),
            nic_recv_match: SimTime::from_us(0.85),
            nic_record_create: SimTime::from_us(0.55),
            nic_ack_gen: SimTime::from_us(0.75),
            nic_ack_process: SimTime::from_us(0.75),

            nic_coll_send: SimTime::from_us(1.40),
            nic_coll_recv: SimTime::from_us(1.64),

            send_packet_pool: 16,
            window: 8,
            mtu: 4096,

            ack_timeout: SimTime::from_us(200.0),
            coll_timeout: SimTime::from_us(400.0),
            timer_interval: SimTime::from_us(50.0),

            crossbar_radix: 16,
            link: LinkTiming::myrinet2000(),
        }
    }

    /// The paper's 16-node cluster: quad 700 MHz P-III, 66 MHz/64-bit PCI,
    /// LANai-9.1 (133 MHz) NICs.
    ///
    /// NIC costs scale with the 225/133 clock ratio; host costs grow with
    /// the slower CPU, and bus costs with 66 MHz PCI vs PCI-X.
    pub fn lanai_9_1() -> Self {
        let xp = Self::lanai_xp();
        let nic = 225.0 / 133.0; // LANai clock ratio
        let host = 1.9; // 700 MHz P-III vs 2.4 GHz Xeon (sub-linear: memory-bound)
        let bus = 2.0; // 66 MHz PCI vs 133 MHz PCI-X
        GmParams {
            host_send_overhead: xp.host_send_overhead.scale(host),
            host_recv_poll: xp.host_recv_poll.scale(host),
            host_coll_call: xp.host_coll_call.scale(host),
            host_repost: xp.host_repost.scale(host),

            pio_write: xp.pio_write.scale(bus),
            dma_setup: xp.dma_setup.scale(bus),
            dma_ns_per_byte: xp.dma_ns_per_byte * 2.0, // ~500 MB/s PCI
            host_event_dma: xp.host_event_dma.scale(bus),

            nic_token_create: xp.nic_token_create.scale(nic),
            nic_sched_pass: xp.nic_sched_pass.scale(nic),
            nic_packet_claim: xp.nic_packet_claim.scale(nic),
            nic_inject: xp.nic_inject.scale(nic),
            nic_seq_check: xp.nic_seq_check.scale(nic),
            nic_recv_match: xp.nic_recv_match.scale(nic),
            nic_record_create: xp.nic_record_create.scale(nic),
            nic_ack_gen: xp.nic_ack_gen.scale(nic),
            nic_ack_process: xp.nic_ack_process.scale(nic),

            // The collective path scales *below* the clock ratio: its SRAM
            // accesses and static-packet writes are fixed-latency, so the
            // measured trigger-time ratio between the clusters is ~1.5.
            nic_coll_send: xp.nic_coll_send.scale(1.50),
            nic_coll_recv: xp.nic_coll_recv.scale(1.50),

            send_packet_pool: 16,
            window: 8,
            mtu: 4096,

            ack_timeout: xp.ack_timeout,
            coll_timeout: xp.coll_timeout,
            timer_interval: xp.timer_interval,

            crossbar_radix: xp.crossbar_radix,
            link: LinkTiming::myrinet2000(),
        }
    }

    /// DMA time for `bytes` across the I/O bus.
    pub fn dma_time(&self, bytes: u32) -> SimTime {
        self.dma_setup + SimTime::from_ns_f64(f64::from(bytes) * self.dma_ns_per_byte)
    }
}

/// Feature toggles of the NIC-based collective protocol, for the ablation
/// study. All-on is the paper's proposed scheme; all-off approximates the
/// earlier "direct" scheme (Buntinas et al.) that layered the barrier on the
/// point-to-point machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollFeatures {
    /// Dedicated per-group queue with a single token (skip destination
    /// queues + round-robin scheduling).
    pub group_queue: bool,
    /// Static pre-built packet (skip send-buffer claim/fill/release and the
    /// host→NIC payload DMA).
    pub static_packet: bool,
    /// One send record with a bit vector (skip per-packet record churn).
    pub bitvec_bookkeeping: bool,
    /// Receiver-driven NACK retransmission (skip per-packet ACKs).
    pub recv_driven_retx: bool,
}

impl CollFeatures {
    /// The paper's proposed collective protocol (§3): everything on.
    pub fn paper() -> Self {
        CollFeatures {
            group_queue: true,
            static_packet: true,
            bitvec_bookkeeping: true,
            recv_driven_retx: true,
        }
    }

    /// The earlier direct NIC-based scheme: collective layered on the
    /// point-to-point processing (everything off).
    pub fn direct() -> Self {
        CollFeatures {
            group_queue: false,
            static_packet: false,
            bitvec_bookkeeping: false,
            recv_driven_retx: false,
        }
    }
}

impl Default for CollFeatures {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_consistently() {
        let xp = GmParams::lanai_xp();
        let old = GmParams::lanai_9_1();
        // Older NIC is slower.
        assert!(old.nic_coll_recv > xp.nic_coll_recv);
        assert!(old.nic_token_create > xp.nic_token_create);
        // Older host and bus are slower.
        assert!(old.host_recv_poll > xp.host_recv_poll);
        assert!(old.pio_write > xp.pio_write);
        assert!(old.dma_ns_per_byte > xp.dma_ns_per_byte);
    }

    #[test]
    fn dma_time_is_affine() {
        let p = GmParams::lanai_xp();
        let base = p.dma_time(0);
        assert_eq!(base, p.dma_setup);
        assert_eq!(p.dma_time(1000) - base, SimTime::from_ns(1000));
    }

    #[test]
    fn collective_work_is_cheaper_than_p2p_path() {
        // The collective send must beat token-create + sched + claim + DMA +
        // inject, otherwise the protocol would be pointless.
        let p = GmParams::lanai_xp();
        let p2p_send = p.nic_token_create
            + p.nic_sched_pass
            + p.nic_packet_claim
            + p.dma_time(4)
            + p.nic_inject
            + p.nic_record_create;
        assert!(p.nic_coll_send < p2p_send);
        let p2p_recv = p.nic_seq_check + p.nic_recv_match + p.dma_time(4) + p.nic_ack_gen;
        assert!(p.nic_coll_recv < p2p_recv);
    }

    #[test]
    fn feature_presets() {
        assert!(CollFeatures::paper().recv_driven_retx);
        assert!(!CollFeatures::direct().group_queue);
        assert_eq!(CollFeatures::default(), CollFeatures::paper());
    }
}
