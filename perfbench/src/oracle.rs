//! Correctness oracle. Every stored value encodes the key it was stored
//! under, so any value a read returns can be checked against the key it
//! was read by, whatever write it came from.

use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;

/// A value for `key`, tagged with the write that produced it.
pub fn encode(key: i64, version: u64) -> i64 {
    debug_assert!(
        (0..1 << 31).contains(&key),
        "key {key} out of encodable range"
    );
    (key << 32) | (version & 0xFFFF_FFFF) as i64
}

/// The key a value was stored under.
pub fn decode(value: i64) -> i64 {
    value >> 32
}

/// True when `value` was stored under `key`.
pub fn holds(key: i64, value: i64) -> bool {
    decode(value) == key
}

/// Violations of the teardown invariants, as messages.
pub fn teardown(heap: &Heap, stats: &StatsSnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(f) = heap.check_integrity() {
        bad.push(format!("heap integrity: {f:?}"));
    }
    if stats.read_aborts != stats.abort_reason_sum() {
        bad.push(format!(
            "read_aborts {} != abort reason sum {}",
            stats.read_aborts,
            stats.abort_reason_sum()
        ));
    }
    if stats.deflations > stats.inflations {
        bad.push(format!(
            "deflations {} > inflations {}",
            stats.deflations, stats.inflations
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_decode_to_their_key() {
        for key in [0i64, 1, 2047, (1 << 20) - 1, (1 << 31) - 1] {
            for version in [0u64, 1, 0xFFFF_FFFF, u64::MAX] {
                let v = encode(key, version);
                assert_eq!(decode(v), key, "key {key} version {version}");
                assert!(holds(key, v));
                assert!(!holds(key + 1, v));
            }
        }
        assert_ne!(encode(5, 1), encode(5, 2), "versions stay distinct");
        assert!(!holds(5, 5), "a bare key is not a valid value");
    }

    #[test]
    fn teardown_flags_unbalanced_counters() {
        let heap = Heap::new(64);
        let ok = StatsSnapshot {
            read_aborts: 2,
            abort_locked_at_entry: 1,
            abort_inflation: 1,
            inflations: 1,
            deflations: 1,
            ..Default::default()
        };
        assert!(teardown(&heap, &ok).is_empty());
        let bad = StatsSnapshot {
            read_aborts: 3,
            deflations: 2,
            ..ok
        };
        assert_eq!(teardown(&heap, &bad).len(), 2);
    }
}
