//! Size caps on the values every simulated event moves.
//!
//! Each delivery writes its message into a slab slot and reads it back
//! out, the GM collective path copies `CollAction`s and `Packet`s, and
//! every record the log keeps is built from an `Occ` or a `PacketLog`. A
//! field that grows one of these values makes every such copy wider, so
//! the caps below sit at today's sizes: growing a value fails here rather
//! than surfacing later as a profile regression.

use nicbar_elan::ElanEvent;
use nicbar_gm::{CollAction, GmEvent, Packet};
use nicbar_sim::{Occ, PacketLog};
use std::mem::size_of;

#[test]
fn per_event_values_stay_within_their_size_caps() {
    let sizes = [
        ("GmEvent", size_of::<GmEvent>(), 96),
        ("CollAction", size_of::<CollAction>(), 80),
        ("Packet", size_of::<Packet>(), 80),
        ("ElanEvent", size_of::<ElanEvent>(), 48),
        ("Occ", size_of::<Occ>(), 56),
        ("PacketLog", size_of::<PacketLog>(), 56),
    ];
    for (name, size, cap) in sizes {
        assert!(
            size <= cap,
            "{name} is {size} bytes, over its {cap}-byte cap"
        );
    }
}
