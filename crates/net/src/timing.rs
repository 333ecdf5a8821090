//! Wormhole link timing.
//!
//! Both Myrinet and QsNet are wormhole-routed: the packet header cuts
//! through each switch as soon as the route is computed, and the body
//! streams behind it. End-to-end latency of a `b`-byte packet over `h`
//! switch hops is therefore
//!
//! ```text
//! T(h, b) = header + h * (switch + wire) + b * per_byte
//! ```
//!
//! — the body serialization is paid once (pipelined through the cut-through
//! switches), not once per hop.

use nicbar_sim::SimTime;

/// Per-network link/switch latency parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkTiming {
    /// Fixed cost to form and inject the routing header (ns).
    pub header_ns: u64,
    /// Routing decision + crossbar traversal per switch (ns).
    pub switch_ns: u64,
    /// Wire/cable propagation per hop (ns).
    pub wire_ns: u64,
    /// Serialization cost per payload byte (ns, fractional).
    pub ns_per_byte: f64,
}

impl LinkTiming {
    /// End-to-end wormhole latency for `bytes` of payload over `hops`
    /// switch traversals.
    pub fn latency(&self, hops: u32, bytes: u32) -> SimTime {
        let fixed = self.header_ns + u64::from(hops) * (self.switch_ns + self.wire_ns);
        SimTime::from_ns(fixed) + self.body(bytes)
    }

    /// Time the packet occupies the destination input port (its full
    /// serialization, header + body). Used by the receive port's contention
    /// model ([`crate::wire::WireRx`]).
    pub fn occupancy(&self, bytes: u32) -> SimTime {
        SimTime::from_ns(self.header_ns) + self.body(bytes)
    }

    /// Serialization of `bytes` of payload, to the nearest nanosecond.
    #[inline]
    fn body(&self, bytes: u32) -> SimTime {
        SimTime::from_ns_f64(f64::from(bytes) * self.ns_per_byte)
    }

    /// Myrinet 2000 era link timing: 2 Gb/s links (0.5 ns/byte each way on
    /// the 2+2 Gb/s full duplex link), sub-microsecond switch latency.
    pub fn myrinet2000() -> Self {
        LinkTiming {
            header_ns: 100,
            switch_ns: 300,
            wire_ns: 50,
            ns_per_byte: 0.5,
        }
    }

    /// QsNet/Elan3 link timing: 400 MB/s links (2.5 ns/byte), ~35 ns Elite
    /// switch latency (per the QsNet papers).
    pub fn qsnet_elan3() -> Self {
        LinkTiming {
            header_ns: 80,
            switch_ns: 35,
            wire_ns: 25,
            ns_per_byte: 2.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_affine_in_hops_and_bytes() {
        let t = LinkTiming {
            header_ns: 100,
            switch_ns: 300,
            wire_ns: 50,
            ns_per_byte: 0.5,
        };
        assert_eq!(t.latency(1, 0).as_ns(), 450);
        assert_eq!(t.latency(3, 0).as_ns(), 100 + 3 * 350);
        assert_eq!(t.latency(1, 8).as_ns(), 450 + 4);
        // serialization paid once regardless of hop count
        assert_eq!(
            t.latency(5, 64).as_ns() - t.latency(5, 0).as_ns(),
            t.latency(1, 64).as_ns() - t.latency(1, 0).as_ns()
        );
    }

    #[test]
    fn occupancy_excludes_per_hop_terms() {
        let t = LinkTiming::myrinet2000();
        assert_eq!(t.occupancy(0).as_ns(), 100);
        assert_eq!(t.occupancy(8).as_ns(), 104);
        assert!(t.occupancy(8) < t.latency(1, 8));
    }

    #[test]
    fn presets_are_sane() {
        let m = LinkTiming::myrinet2000();
        let q = LinkTiming::qsnet_elan3();
        // Quadrics switches are much faster than Myrinet crossbars…
        assert!(q.switch_ns < m.switch_ns);
        // …but its links are slower per byte (400 MB/s vs 2 Gb/s).
        assert!(q.ns_per_byte > m.ns_per_byte);
        // Small-packet one-hop latency is sub-microsecond on both.
        assert!(m.latency(1, 8).as_us() < 1.0);
        assert!(q.latency(1, 8).as_us() < 1.0);
    }
}
