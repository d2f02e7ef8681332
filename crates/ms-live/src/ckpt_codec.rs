//! The checkpoint payload byte format shared by both runtimes.
//!
//! A [`CkptWrite`] serializes to exactly one payload layout, whichever
//! store persists it: `ms-wire`'s `FsStore` frames these bytes into
//! `ckpt/e{epoch}_op{N}.ckpt` / `.delta` files, and the in-memory
//! [`LiveStorage`](crate::LiveStorage) round-trips every accepted
//! write through the same codec — so the in-process runtime can never
//! hold a checkpoint the filesystem store could not persist, and folds
//! across the two stores are byte-identical by construction.
//!
//! Layout (all fields tagged by the snapshot codec):
//!
//! * full:  `next_seq`, `logical_bytes`, `data`, cut suffix
//! * delta: `next_seq`, `base epoch`, delta payload
//!   ([`StateDelta::encode_into`]), cut suffix
//!
//! where the cut suffix is the counted `(input port, tuple)` in-flight
//! sequence followed by the counted per-input `resume_seq` thresholds.
//! Whether a payload is full or delta is carried *outside* the bytes
//! (the file extension, or the [`CkptState`] variant), which is why
//! the decode side is two entry points.

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta::StateDelta;
use ms_core::error::{Error, Result};
use ms_core::ids::EpochId;
use ms_core::operator::OperatorSnapshot;
use ms_core::tuple::Tuple;

use crate::storage::{CkptState, CkptWrite};

/// Appends the shared `(in_flight, resume_seq)` cut suffix.
fn put_cut(w: &mut SnapshotWriter, in_flight: &[(u32, Tuple)], resume_seq: &[u64]) {
    w.put_seq(in_flight.iter(), |w, (port, t)| {
        w.put_u64(*port as u64).put_tuple(t);
    });
    w.put_seq(resume_seq.iter(), |w, s| {
        w.put_u64(*s);
    });
}

/// The cut suffix: in-flight `(port, tuple)` pairs plus resume seqs.
type Cut = (Vec<(u32, Tuple)>, Vec<u64>);

/// Reads the cut suffix and demands the payload end there.
fn get_cut(r: &mut SnapshotReader<'_>) -> Result<Cut> {
    let in_flight = r.get_seq(|r| Ok((r.get_u64()? as u32, r.get_tuple()?)))?;
    let resume_seq = r.get_seq(|r| r.get_u64())?;
    if !r.is_exhausted() {
        return Err(Error::Codec(
            "trailing bytes after checkpoint payload".into(),
        ));
    }
    Ok((in_flight, resume_seq))
}

/// Serializes a checkpoint write into the shared payload format.
pub fn encode_ckpt(ckpt: &CkptWrite) -> Vec<u8> {
    match &ckpt.state {
        CkptState::Full(snapshot) => {
            let mut w = SnapshotWriter::new();
            w.put_u64(ckpt.next_seq)
                .put_u64(snapshot.logical_bytes)
                .put_bytes(&snapshot.data);
            put_cut(&mut w, &ckpt.in_flight, &ckpt.resume_seq);
            w.finish()
        }
        CkptState::Delta { base, delta } => {
            let mut w = SnapshotWriter::with_capacity(18 + delta.encoded_bytes());
            w.put_u64(ckpt.next_seq).put_u64(base.0);
            delta.encode_into(&mut w);
            put_cut(&mut w, &ckpt.in_flight, &ckpt.resume_seq);
            w.finish()
        }
    }
}

/// Decodes a full-snapshot payload written by [`encode_ckpt`].
pub fn decode_full(payload: &[u8]) -> Result<CkptWrite> {
    decode_full_owned(payload.to_vec(), 0)
}

/// [`decode_full`] of the payload at `buf[offset..]` that reuses `buf`
/// as the snapshot's state bytes: they move to its front in place, so
/// a restore that read a whole checkpoint file allocates nothing more.
pub fn decode_full_owned(mut buf: Vec<u8>, offset: usize) -> Result<CkptWrite> {
    let mut r = SnapshotReader::new(&buf[offset..]);
    let next_seq = r.get_u64()?;
    let logical_bytes = r.get_u64()?;
    let len = r.get_bytes_ref()?.len();
    let end = buf.len() - r.remaining();
    let (in_flight, resume_seq) = get_cut(&mut r)?;
    buf.truncate(end);
    buf.drain(..end - len);
    Ok(CkptWrite {
        state: CkptState::Full(OperatorSnapshot {
            data: buf,
            logical_bytes,
        }),
        next_seq,
        in_flight,
        resume_seq,
    })
}

/// Decodes a delta payload written by [`encode_ckpt`].
pub fn decode_delta(payload: &[u8]) -> Result<CkptWrite> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    let base = EpochId(r.get_u64()?);
    let delta = StateDelta::decode_from(&mut r)?;
    let (in_flight, resume_seq) = get_cut(&mut r)?;
    Ok(CkptWrite {
        state: CkptState::Delta { base, delta },
        next_seq,
        in_flight,
        resume_seq,
    })
}

/// Encoded length of a delta payload's header, the two tagged `u64`s
/// [`decode_delta_base`] reads.
pub const DELTA_HEADER_BYTES: usize = 18;

/// Reads only a delta payload's header — `(next_seq, base epoch)` —
/// so chain validation never decodes value bytes: it needs just the
/// first [`DELTA_HEADER_BYTES`] of the payload.
pub fn decode_delta_base(payload: &[u8]) -> Result<(u64, EpochId)> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    Ok((next_seq, EpochId(r.get_u64()?)))
}

/// Round-trips a write through the shared format, proving it is
/// representable (and normalizing it to exactly what a filesystem
/// store would re-read).
pub fn roundtrip(ckpt: CkptWrite) -> Result<CkptWrite> {
    let payload = encode_ckpt(&ckpt);
    match ckpt.state {
        CkptState::Full(_) => decode_full(&payload),
        CkptState::Delta { .. } => decode_delta(&payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::delta::DeltaTable;
    use ms_core::ids::OperatorId;
    use ms_core::time::SimTime;
    use ms_core::value::Value;

    fn tup(seq: u64) -> Tuple {
        Tuple::new(
            OperatorId(3),
            seq,
            SimTime::ZERO,
            vec![Value::Int(seq as i64), Value::Str("x".into())],
        )
    }

    #[test]
    fn full_payload_roundtrips() {
        let w = CkptWrite {
            state: CkptState::Full(OperatorSnapshot {
                data: vec![1, 2, 3],
                logical_bytes: 999,
            }),
            next_seq: 17,
            in_flight: vec![(0, tup(4)), (2, tup(6))],
            resume_seq: vec![5, 0, 7],
        };
        let back = decode_full(&encode_ckpt(&w)).unwrap();
        let CkptState::Full(s) = &back.state else {
            panic!("full expected");
        };
        assert_eq!(s.data, vec![1, 2, 3]);
        assert_eq!(s.logical_bytes, 999);
        assert_eq!(back.next_seq, 17);
        assert_eq!(back.resume_seq, vec![5, 0, 7]);
        assert_eq!(back.in_flight.len(), 2);
        assert_eq!(back.in_flight[1].0, 2);
        assert_eq!(back.in_flight[1].1, tup(6));
        // Decoding in place from a framed file buffer gives the same.
        let mut file = vec![0xEE; 4];
        file.extend_from_slice(&encode_ckpt(&w));
        let owned = decode_full_owned(file, 4).unwrap();
        let CkptState::Full(o) = &owned.state else {
            panic!("full expected");
        };
        assert_eq!(o.data, s.data);
        assert_eq!(o.logical_bytes, 999);
        assert_eq!(owned.next_seq, 17);
        assert_eq!(owned.in_flight, back.in_flight);
        assert_eq!(owned.resume_seq, back.resume_seq);
    }

    #[test]
    fn delta_payload_roundtrips_and_header_reads_shallow() {
        let mut t = DeltaTable::new();
        t.insert(9, vec![0xAB; 8]);
        t.remove(4);
        let w = CkptWrite {
            state: CkptState::Delta {
                base: EpochId(12),
                delta: t.take_delta(55),
            },
            next_seq: 40,
            in_flight: Vec::new(),
            resume_seq: vec![3],
        };
        let payload = encode_ckpt(&w);
        assert_eq!(
            decode_delta_base(&payload[..DELTA_HEADER_BYTES]).unwrap(),
            (40, EpochId(12))
        );
        let back = decode_delta(&payload).unwrap();
        let CkptState::Delta { base, delta } = &back.state else {
            panic!("delta expected");
        };
        assert_eq!(*base, EpochId(12));
        assert_eq!(delta.changed, vec![(9, vec![0xAB; 8])]);
        assert_eq!(delta.removed, vec![4]);
        assert_eq!(delta.logical_bytes, 55);
        assert_eq!(back.resume_seq, vec![3]);
    }

    #[test]
    fn trailing_or_torn_bytes_error() {
        let w = CkptWrite::full(OperatorSnapshot::empty(), 1);
        let mut payload = encode_ckpt(&w);
        assert!(decode_full(&payload[..payload.len() - 1]).is_err());
        payload.push(0);
        assert!(decode_full(&payload).is_err());
        assert!(decode_delta(&payload).is_err());
    }
}
