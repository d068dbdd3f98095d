//! Message types exchanged between ranks: one visitor type per
//! asynchronous phase (each opens its own channel group).
//!
//! Each message type implements the runtime's [`Wire`] codec
//! (little-endian fields, after a one-byte tag on [`VoronoiMsg`]) so the
//! traversal loop can coalesce per-destination batches into flat byte
//! buffers and charge their exact wire size. The visitors also implement
//! [`DeepBytes`] (all messages are plain-old-data, so they own no heap).

use crate::state::{Label, NO_VERTEX};
use stgraph::csr::{Distance, Vertex};
use stgraph::partition::LocalId;
use struntime::{DeepBytes, Wire};

/// Voronoi-cell phase messages (Alg 4 plus delegate synchronization).
///
/// A message names its vertex by its held local id on the rank that
/// visits it (see `stgraph::partition`): the sender resolves it from its
/// ghost table or the delegate's replica slot, so the visit indexes state
/// directly. Labels keep global ids. Under the priority discipline a rank
/// queues only the held id an admitted message names (see
/// `crate::voronoi`); the full-delivery disciplines queue the message.
#[derive(Clone, Copy, Debug)]
pub enum VoronoiMsg {
    /// Local bootstrap: relax the outgoing arcs of the seed held at this
    /// local id (its adjacency, or this rank's slice if it is a delegate).
    Start(LocalId),
    /// Relaxation of `target` with a candidate label.
    Relax {
        /// Local id of the vertex being relaxed.
        target: LocalId,
        /// Candidate label.
        label: Label,
    },
    /// Controller broadcast: delegate `target`'s replicated label improved.
    DelegateUpdate {
        /// Local id of the delegate's replica.
        target: LocalId,
        /// Its new label.
        label: Label,
    },
}

/// Tree-edge phase messages (Alg 6): trace the predecessor chain of a
/// vertex back to its cell's seed. A message sent along a chain names the
/// vertex it came from and that vertex's distance, so the visit derives
/// the edge's weight as `child_dist - d_1(vertex)`.
#[derive(Clone, Copy, Debug)]
pub struct TraceMsg {
    /// Vertex whose predecessor chain should be walked.
    pub vertex: Vertex,
    /// The vertex whose predecessor `vertex` is, or [`NO_VERTEX`] for a
    /// bridge endpoint, where a trace starts.
    pub child: Vertex,
    /// `child`'s distance to its seed (0 for a bridge endpoint).
    pub child_dist: Distance,
}

impl TraceMsg {
    /// The trace that starts at bridge endpoint `vertex`.
    pub fn start(vertex: Vertex) -> TraceMsg {
        TraceMsg {
            vertex,
            child: NO_VERTEX,
            child_dist: 0,
        }
    }
}

// ---- wire codec -----------------------------------------------------------

impl Wire for VoronoiMsg {
    fn encoded_len(&self) -> usize {
        match self {
            VoronoiMsg::Start(_) => 1 + 4,
            // tag + target + label (dist, src, pred)
            VoronoiMsg::Relax { .. } | VoronoiMsg::DelegateUpdate { .. } => 1 + 4 + 16,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            VoronoiMsg::Start(s) => {
                out.push(0);
                s.encode_into(out);
            }
            VoronoiMsg::Relax { target, label } => {
                out.push(1);
                target.encode_into(out);
                label.encode_into(out);
            }
            VoronoiMsg::DelegateUpdate { target, label } => {
                out.push(2);
                target.encode_into(out);
                label.encode_into(out);
            }
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::decode_from(buf, pos)? {
            0 => Some(VoronoiMsg::Start(Vertex::decode_from(buf, pos)?)),
            tag @ (1 | 2) => {
                let target = Vertex::decode_from(buf, pos)?;
                let label = Label::decode_from(buf, pos)?;
                Some(if tag == 1 {
                    VoronoiMsg::Relax { target, label }
                } else {
                    VoronoiMsg::DelegateUpdate { target, label }
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

struntime::wire_struct!(TraceMsg {
    vertex,
    child,
    child_dist
});

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
            VoronoiMsg::Relax { target: 7, label },
            VoronoiMsg::DelegateUpdate { target: 8, label },
        ];
        let mut buf = Vec::new();
        encode_batch(&msgs, &mut buf);
        let expect: usize = msgs.iter().map(Wire::encoded_len).sum();
        assert_eq!(buf.len(), expect);
        assert_eq!(msgs[1].encoded_len(), 21, "a Relax is 21 wire bytes");
        let back = decode_batch::<VoronoiMsg>(&buf, msgs.len()).expect("round trip");
        for (a, b) in msgs.iter().zip(&back) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn trace_msgs_round_trip() {
        let t = [
            TraceMsg::start(77),
            TraceMsg {
                vertex: 5,
                child: 6,
                child_dist: 40,
            },
        ];
        let mut buf = Vec::new();
        encode_batch(&t, &mut buf);
        assert_eq!(buf.len(), 2 * 16);
        let back = decode_batch::<TraceMsg>(&buf, 2).expect("round trip");
        assert_eq!((back[0].vertex, back[0].child), (77, NO_VERTEX));
        assert_eq!(
            (back[1].vertex, back[1].child, back[1].child_dist),
            (5, 6, 40)
        );
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        let mut pos = 0;
        assert!(VoronoiMsg::decode_from(&[9, 0, 0, 0, 0], &mut pos).is_none());
    }

    /// The priority discipline queues a Voronoi vertex's 4 B held id, and
    /// its ring entry adds the 4 B bucket-list link, plus the 16 B
    /// lineage metadata only when observed. The full-delivery disciplines
    /// queue the 24 B message.
    #[test]
    fn voronoi_queue_entries_are_held_ids() {
        use crate::voronoi::QueuedId;
        assert_eq!(struntime::queue_entry_bytes::<QueuedId>(false), 8);
        assert_eq!(struntime::queue_entry_bytes::<QueuedId>(true), 24);
        assert_eq!(std::mem::size_of::<VoronoiMsg>(), 24);
    }
}
