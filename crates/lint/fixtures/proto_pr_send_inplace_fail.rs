//! PR002 fixture, in-place shape: the action is built inside
//! `push_with`'s closure, straight into the buffer. A first transmission
//! (`retx: false`, not a NACK) still needs a `sent_payloads` record in
//! the same function.

pub struct Emitter {
    node: NodeId,
    round: u16,
    slot: usize,
    targets: Vec<NodeId>,
}

impl Emitter {
    pub fn fan_out(&mut self, live: &mut LiveEpoch, actions: &mut ActionBuf) {
        for &dst in &self.targets {
            actions.push_with(|| CollAction::Send { //~ PR002
                dst,
                pkt: CollPacket {
                    src: self.node,
                    epoch: live.epoch,
                    round: self.round,
                    kind: CollKind::Barrier,
                },
                retx: false,
                cause: live.cause,
            });
        }
    }
}
