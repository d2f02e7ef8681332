//! Property tests for incremental checkpoints: folding a randomized
//! base + delta chain must be *byte-identical* to the full snapshot at
//! every epoch — the contract that makes recovery from a chain
//! indistinguishable from recovery from a full snapshot — and the
//! delta wire encoding must roundtrip exactly at its pre-sized length.
//!
//! The streaming [`fold`] is also checked against the table oracle it
//! replaced (decode the base into a map, apply each delta, re-encode)
//! over arbitrary chains, and against corrupt bases, which must be
//! rejected with `Err`, never a panic.

use std::collections::BTreeMap;

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta::{decode_table, encode_table, fold, DeltaTable, StateDelta};
use proptest::prelude::*;

/// The table oracle: decode, apply each delta's writes then its
/// removals, re-encode.
fn oracle(base: &[u8], deltas: &[StateDelta]) -> Vec<u8> {
    let mut table = decode_table(base).unwrap();
    for d in deltas {
        for (k, v) in &d.changed {
            table.insert(*k, v.clone());
        }
        for k in &d.removed {
            table.remove(k);
        }
    }
    encode_table(&table)
}

/// A table encoded with its entries in the given order, sorted or not.
fn raw_table(entries: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_seq(entries.iter(), |w, (k, v)| {
        w.put_u64(*k).put_bytes(v);
    });
    w.finish()
}

/// Arbitrary deltas, not only the ones a `DeltaTable` emits: writes
/// and removals in any order, duplicate keys, keys both written and
/// removed in one delta, and empty deltas.
fn arb_chain() -> impl Strategy<Value = Vec<StateDelta>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (0u64..48, proptest::collection::vec(any::<u8>(), 0..24)),
                0..12,
            ),
            proptest::collection::vec(0u64..48, 0..8),
        )
            .prop_map(|(changed, removed)| StateDelta {
                changed,
                removed,
                logical_bytes: 0,
            }),
        0..6,
    )
}

fn arb_entries() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (0u64..48, proptest::collection::vec(any::<u8>(), 0..24)),
        0..32,
    )
}

/// Per-epoch mutation batches: `(insert?, key, value)` — a remove
/// ignores the value. Keys overlap across epochs on purpose, so
/// chains exercise overwrite-after-remove and remove-of-absent paths.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<(bool, u64, Vec<u8>)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                any::<bool>(),
                0u64..48,
                proptest::collection::vec(any::<u8>(), 0..24),
            ),
            0..16,
        ),
        1..6,
    )
}

proptest! {
    /// At every epoch of a randomized chain, folding the base plus all
    /// deltas so far reproduces the operator's full snapshot exactly.
    #[test]
    fn folding_random_chain_is_byte_identical_at_every_epoch(
        init in arb_entries(),
        epochs in arb_epochs(),
    ) {
        let mut t = DeltaTable::new();
        for (k, v) in init {
            t.insert(k, v);
        }
        let base = t.snapshot();
        t.mark_clean();
        let mut deltas = Vec::new();
        for ops in epochs {
            for (is_insert, k, v) in ops {
                if is_insert {
                    t.insert(k, v);
                } else {
                    t.remove(k);
                }
            }
            deltas.push(t.take_delta(t.value_bytes()));
            prop_assert_eq!(fold(&base, &deltas).unwrap(), t.snapshot());
        }
    }

    /// Delta payloads roundtrip through the codec at exactly their
    /// pre-sized length.
    #[test]
    fn delta_encoding_roundtrips_at_exact_size(
        changed in arb_entries(),
        removed in proptest::collection::vec(any::<u64>(), 0..16),
        logical in any::<u64>(),
    ) {
        let d = StateDelta {
            changed: changed.into_iter().collect::<std::collections::BTreeMap<_, _>>().into_iter().collect(),
            removed: removed.into_iter().collect::<std::collections::BTreeSet<_>>().into_iter().collect(),
            logical_bytes: logical,
        };
        let mut w = SnapshotWriter::with_capacity(d.encoded_bytes());
        d.encode_into(&mut w);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len(), d.encoded_bytes());
        let back = StateDelta::decode_from(&mut SnapshotReader::new(&bytes)).unwrap();
        prop_assert_eq!(back, d);
    }

    /// The streaming fold is byte-identical to the table oracle over
    /// random canonical bases and arbitrary chains.
    #[test]
    fn streaming_fold_matches_table_oracle(
        init in arb_entries(),
        chain in arb_chain(),
    ) {
        let base = encode_table(&init.into_iter().collect::<BTreeMap<_, _>>());
        prop_assert_eq!(fold(&base, &chain).unwrap(), oracle(&base, &chain));
    }

    /// A base whose keys are not strictly ascending (unsorted or
    /// duplicated) is corrupt: `Err`, never a silently merged table.
    /// An ascending one folds exactly like the oracle.
    #[test]
    fn non_canonical_base_is_rejected(
        mut entries in arb_entries(),
        sorted in any::<bool>(),
        chain in arb_chain(),
    ) {
        if sorted {
            // Ascending but for any duplicated keys, which must still
            // be rejected.
            entries.sort_by_key(|e| e.0);
        }
        let base = raw_table(&entries);
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        match fold(&base, &chain) {
            Ok(out) => {
                prop_assert!(ascending, "non-canonical base folded");
                prop_assert_eq!(out, oracle(&base, &chain));
            }
            Err(_) => prop_assert!(!ascending, "canonical base rejected"),
        }
    }

    /// Truncated, extended or garbage bases return `Err` (or, for
    /// garbage that happens to decode, anything) — never a panic.
    #[test]
    fn damaged_base_errors_without_panic(
        init in arb_entries(),
        chain in arb_chain(),
        cut in any::<usize>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let base = encode_table(&init.into_iter().collect::<BTreeMap<_, _>>());
        let cut = cut % base.len();
        prop_assert!(fold(&base[..cut], &chain).is_err(), "truncated at {cut}");
        let mut extended = base.clone();
        extended.push(0);
        prop_assert!(fold(&extended, &chain).is_err(), "trailing bytes");
        let _ = fold(&junk, &chain);
    }
}
