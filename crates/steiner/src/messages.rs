//! Message types exchanged between ranks: one visitor type per
//! asynchronous phase (each opens its own channel group).
//!
//! Each message type implements the runtime's [`Wire`] codec
//! (little-endian fields, after a one-byte tag on [`VoronoiMsg`]) so the
//! traversal loop can coalesce per-destination batches into flat byte
//! buffers and charge their exact wire size. The visitors also implement
//! [`DeepBytes`] (all messages are plain-old-data, so they own no heap).

use crate::state::Label;
use stgraph::csr::{Vertex, Weight};
use stgraph::partition::LocalId;
use struntime::{DeepBytes, Wire};

/// Voronoi-cell phase messages (Alg 4 plus delegate synchronization).
///
/// A message names its vertex by its held local id on the rank that
/// visits it (see `stgraph::partition`): the sender resolves it from its
/// ghost table or the delegate's replica slot, so the visit indexes state
/// directly. Labels keep global ids.
#[derive(Clone, Copy, Debug)]
pub enum VoronoiMsg {
    /// Local bootstrap: relax the outgoing arcs of the seed held at this
    /// local id (its adjacency, or this rank's slice if it is a delegate).
    Start(LocalId),
    /// Relaxation of `target` with a candidate label; `pred_weight` is the
    /// weight of the `(label.pred, target)` edge.
    Relax {
        /// Local id of the vertex being relaxed.
        target: LocalId,
        /// Candidate label.
        label: Label,
        /// Weight of the predecessor edge carried with the label.
        pred_weight: Weight,
    },
    /// Controller broadcast: delegate `target`'s replicated label improved.
    DelegateUpdate {
        /// Local id of the delegate's replica.
        target: LocalId,
        /// Its new label.
        label: Label,
        /// Weight of the predecessor edge.
        pred_weight: Weight,
    },
}

impl VoronoiMsg {
    /// Queue priority: the paper's optimization gives precedence to
    /// messages from vertices at lower distance.
    pub fn priority(&self) -> u64 {
        match self {
            VoronoiMsg::Start(_) => 0,
            VoronoiMsg::Relax { label, .. } | VoronoiMsg::DelegateUpdate { label, .. } => {
                label.dist
            }
        }
    }
}

/// Tree-edge phase messages (Alg 6): trace the predecessor chain of a
/// vertex back to its cell's seed.
#[derive(Clone, Copy, Debug)]
pub struct TraceMsg {
    /// Vertex whose predecessor chain should be walked.
    pub vertex: Vertex,
}

// ---- wire codec -----------------------------------------------------------

impl Wire for VoronoiMsg {
    fn encoded_len(&self) -> usize {
        match self {
            VoronoiMsg::Start(_) => 1 + 4,
            // tag + target + label (dist, src, pred) + pred_weight
            VoronoiMsg::Relax { .. } | VoronoiMsg::DelegateUpdate { .. } => 1 + 4 + 16 + 8,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            VoronoiMsg::Start(s) => {
                out.push(0);
                s.encode_into(out);
            }
            VoronoiMsg::Relax {
                target,
                label,
                pred_weight,
            } => {
                out.push(1);
                target.encode_into(out);
                label.encode_into(out);
                pred_weight.encode_into(out);
            }
            VoronoiMsg::DelegateUpdate {
                target,
                label,
                pred_weight,
            } => {
                out.push(2);
                target.encode_into(out);
                label.encode_into(out);
                pred_weight.encode_into(out);
            }
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::decode_from(buf, pos)? {
            0 => Some(VoronoiMsg::Start(Vertex::decode_from(buf, pos)?)),
            tag @ (1 | 2) => {
                let target = Vertex::decode_from(buf, pos)?;
                let label = Label::decode_from(buf, pos)?;
                let pred_weight = Weight::decode_from(buf, pos)?;
                Some(if tag == 1 {
                    VoronoiMsg::Relax {
                        target,
                        label,
                        pred_weight,
                    }
                } else {
                    VoronoiMsg::DelegateUpdate {
                        target,
                        label,
                        pred_weight,
                    }
                })
            }
            _ => None,
        }
    }
}

impl DeepBytes for VoronoiMsg {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Wire for TraceMsg {
    fn encoded_len(&self) -> usize {
        4
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.vertex.encode_into(out);
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(TraceMsg {
            vertex: Vertex::decode_from(buf, pos)?,
        })
    }
}

impl DeepBytes for TraceMsg {
    fn heap_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use struntime::wire::{decode_batch, encode_batch};

    #[test]
    fn voronoi_msgs_round_trip_at_exact_length() {
        let label = Label {
            dist: 17,
            src: 3,
            pred: 9,
        };
        let msgs = [
            VoronoiMsg::Start(42),
            VoronoiMsg::Relax {
                target: 7,
                label,
                pred_weight: 5,
            },
            VoronoiMsg::DelegateUpdate {
                target: 8,
                label,
                pred_weight: 2,
            },
        ];
        let mut buf = Vec::new();
        encode_batch(&msgs, &mut buf);
        let expect: usize = msgs.iter().map(Wire::encoded_len).sum();
        assert_eq!(buf.len(), expect);
        let back = decode_batch::<VoronoiMsg>(&buf, msgs.len()).expect("round trip");
        for (a, b) in msgs.iter().zip(&back) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn trace_msgs_round_trip() {
        let t = [TraceMsg { vertex: 77 }];
        let mut buf = Vec::new();
        encode_batch(&t, &mut buf);
        assert_eq!(buf.len(), 4);
        let back = decode_batch::<TraceMsg>(&buf, 1).expect("round trip");
        assert_eq!(back[0].vertex, 77);
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let mut pos = 0;
        assert!(VoronoiMsg::decode_from(&[9, 0, 0, 0, 0], &mut pos).is_none());
    }

    /// A queued Voronoi visitor is 32 B; its priority-ring entry adds the
    /// 4 B bucket-list link, and the 16 B lineage metadata only when
    /// observed.
    #[test]
    fn voronoi_queue_entries_drop_lineage_metadata_when_unobserved() {
        assert_eq!(std::mem::size_of::<VoronoiMsg>(), 32);
        assert_eq!(struntime::queue_entry_bytes::<VoronoiMsg>(false), 36);
        assert_eq!(struntime::queue_entry_bytes::<VoronoiMsg>(true), 52);
    }
}
