//! Visitor message types exchanged between ranks, one enum per
//! asynchronous phase (each phase opens its own channel group).
//!
//! Each message type implements the runtime's [`Wire`] codec (a one-byte
//! tag plus little-endian fields) so the traversal driver can coalesce
//! per-destination batches into flat byte buffers and charge their exact
//! wire size, and [`DeepBytes`] (all messages are plain-old-data, so they
//! own no heap).

use crate::state::Label;
use stgraph::csr::{Distance, Vertex, Weight};
use struntime::{DeepBytes, Wire};

/// Voronoi-cell phase messages (Alg 4 plus delegate synchronization).
#[derive(Clone, Copy, Debug)]
pub enum VoronoiMsg {
    /// Local bootstrap: relax the outgoing arcs of seed `s` held by this
    /// rank (its adjacency, or this rank's slice if `s` is a delegate).
    Start(Vertex),
    /// Relaxation of a remote `target` with a candidate label, applied by
    /// the owner when visited; `pred_weight` is the weight of the
    /// `(label.pred, target)` edge.
    Relax {
        /// Vertex being relaxed.
        target: Vertex,
        /// Candidate label.
        label: Label,
        /// Weight of the predecessor edge carried with the label.
        pred_weight: Weight,
    },
    /// Controller broadcast: delegate `target`'s replicated label improved.
    DelegateUpdate {
        /// The delegate vertex.
        target: Vertex,
        /// Its new label.
        label: Label,
        /// Weight of the predecessor edge.
        pred_weight: Weight,
    },
    /// Rank-local only: `label` was applied to the locally held `target`
    /// when this message was pushed (eager relaxation); visiting it relaxes
    /// `target`'s held arcs unless a later improvement superseded it.
    Expand {
        /// The improved vertex (owned, or a delegate replica).
        target: Vertex,
        /// The label it was improved to.
        label: Label,
    },
}

impl VoronoiMsg {
    /// Queue priority: the paper's optimization gives precedence to
    /// messages from vertices at lower distance.
    pub fn priority(&self) -> u64 {
        match self {
            VoronoiMsg::Start(_) => 0,
            VoronoiMsg::Relax { label, .. }
            | VoronoiMsg::DelegateUpdate { label, .. }
            | VoronoiMsg::Expand { label, .. } => label.dist,
        }
    }
}

/// Local-min-distance-edge phase messages (Alg 5, asynchronous part).
#[derive(Clone, Copy, Debug)]
pub enum ProbeMsg {
    /// Bootstrap: scan this rank's local arcs.
    Scan,
    /// A boundary arc probe: rank holding `u`'s state asks `v`'s owner to
    /// evaluate the arc `(u, v)` as a cross-cell candidate.
    Candidate {
        /// Remote endpoint whose state the receiver holds.
        v: Vertex,
        /// Local endpoint the sender evaluated.
        u: Vertex,
        /// Arc weight `d(u, v)`.
        weight: Weight,
        /// `src(u)` at the sender (a seed index, see [`Label::src`]).
        u_src: u32,
        /// `d_1(src(u), u)` at the sender.
        u_dist: Distance,
    },
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
            VoronoiMsg::Expand { .. } => 1 + 4 + 16,
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
            VoronoiMsg::Expand { target, label } => {
                out.push(3);
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
            3 => Some(VoronoiMsg::Expand {
                target: Vertex::decode_from(buf, pos)?,
                label: Label::decode_from(buf, pos)?,
            }),
            _ => None,
        }
    }
}

impl DeepBytes for VoronoiMsg {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl Wire for ProbeMsg {
    fn encoded_len(&self) -> usize {
        match self {
            ProbeMsg::Scan => 1,
            ProbeMsg::Candidate { .. } => 1 + 4 + 4 + 8 + 4 + 8,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            ProbeMsg::Scan => out.push(0),
            ProbeMsg::Candidate {
                v,
                u,
                weight,
                u_src,
                u_dist,
            } => {
                out.push(1);
                v.encode_into(out);
                u.encode_into(out);
                weight.encode_into(out);
                u_src.encode_into(out);
                u_dist.encode_into(out);
            }
        }
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::decode_from(buf, pos)? {
            0 => Some(ProbeMsg::Scan),
            1 => Some(ProbeMsg::Candidate {
                v: Vertex::decode_from(buf, pos)?,
                u: Vertex::decode_from(buf, pos)?,
                weight: Weight::decode_from(buf, pos)?,
                u_src: u32::decode_from(buf, pos)?,
                u_dist: Distance::decode_from(buf, pos)?,
            }),
            _ => None,
        }
    }
}

impl DeepBytes for ProbeMsg {
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
            VoronoiMsg::Expand { target: 6, label },
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
    fn probe_and_trace_msgs_round_trip() {
        let msgs = [
            ProbeMsg::Scan,
            ProbeMsg::Candidate {
                v: 1,
                u: 2,
                weight: 3,
                u_src: 4,
                u_dist: 5,
            },
        ];
        let mut buf = Vec::new();
        encode_batch(&msgs, &mut buf);
        let back = decode_batch::<ProbeMsg>(&buf, msgs.len()).expect("round trip");
        for (a, b) in msgs.iter().zip(&back) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }

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
        let mut pos = 0;
        assert!(ProbeMsg::decode_from(&[7], &mut pos).is_none());
    }
}
