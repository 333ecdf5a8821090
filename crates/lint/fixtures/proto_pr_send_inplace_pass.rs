//! Negative PR002 fixture, in-place shape: the first transmission built
//! inside `push_with`'s closure is legal once the function records its
//! payload in `sent_payloads`.

pub struct Emitter {
    node: NodeId,
    round: u16,
    slot: usize,
    targets: Vec<NodeId>,
}

impl Emitter {
    pub fn fan_out(&mut self, live: &mut LiveEpoch, actions: &mut ActionBuf) {
        live.sent_payloads[self.slot] = Some(CollKind::Barrier);
        for &dst in &self.targets {
            actions.push_with(|| CollAction::Send {
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
