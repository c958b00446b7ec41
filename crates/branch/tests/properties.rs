//! Property-based tests for the branch-prediction substrate.

use paco_branch::{
    Btb, BtbConfig, ConfidenceConfig, CounterTable, DirectionPredictor, MdcTable,
    ReturnAddressStack, TournamentConfig, TournamentPredictor,
};
use paco_types::Pc;
use proptest::prelude::*;

proptest! {
    /// A table counter never leaves its range under any op sequence,
    /// and ops on one counter leave its neighbour alone.
    #[test]
    fn counter_stays_in_range(
        bits in 1u32..=8,
        ops in proptest::collection::vec(any::<bool>(), 0..500),
    ) {
        let mut t = CounterTable::new(bits, 0, 2);
        for up in ops {
            if up {
                t.increment(0);
            } else {
                t.decrement(0);
            }
            prop_assert!(t.value(0) <= t.max());
            prop_assert_eq!(t.value(1), 0);
        }
    }

    /// The MDC value equals the number of consecutive correct predictions
    /// since the last mispredict, saturated at 15.
    #[test]
    fn mdc_tracks_miss_distance(outcomes in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut t = MdcTable::new(ConfidenceConfig::tiny());
        let idx = t.index(Pc::new(0x4000), 0b1001, true);
        let mut distance = 0u32;
        for correct in outcomes {
            t.update(idx, correct);
            distance = if correct { distance + 1 } else { 0 };
            prop_assert_eq!(t.read(idx).value() as u32, distance.min(15));
        }
    }

    /// The BTB always returns the most recently installed target for a PC
    /// while no conflicting fills evict it.
    #[test]
    fn btb_returns_latest_target(targets in proptest::collection::vec(1u64..1_000_000, 1..50)) {
        let mut btb = Btb::new(BtbConfig::tiny());
        let pc = Pc::new(0x88);
        for t in targets {
            let target = Pc::new(t * 4);
            btb.update(pc, target);
            prop_assert_eq!(btb.lookup(pc), Some(target));
        }
    }

    /// RAS pop returns pushes in LIFO order whenever depth is respected.
    #[test]
    fn ras_lifo_within_depth(
        depth in 1usize..32,
        pushes in proptest::collection::vec(1u64..1_000_000, 0..31),
    ) {
        prop_assume!(pushes.len() <= depth);
        let mut ras = ReturnAddressStack::new(depth);
        for &p in &pushes {
            ras.push(Pc::new(p * 4));
        }
        for &p in pushes.iter().rev() {
            prop_assert_eq!(ras.pop(), Some(Pc::new(p * 4)));
        }
        prop_assert_eq!(ras.pop(), None);
    }

    /// The tournament predictor converges on any strongly biased branch.
    #[test]
    fn tournament_learns_constant_branches(
        pc_base in 1u64..1_000,
        direction in any::<bool>(),
    ) {
        let mut p = TournamentPredictor::new(TournamentConfig::tiny());
        let pc = Pc::new(0x40_0000 + pc_base * 4);
        for i in 0..32u64 {
            let hist = i & 0xff;
            let pred = p.predict(pc, hist);
            p.update(pc, hist, direction, pred);
        }
        prop_assert_eq!(p.predict(pc, 0x55), direction);
    }

    /// MDC indexing is a pure function of (pc, history, direction).
    #[test]
    fn mdc_index_is_pure(pc in 1u64..1_000_000, hist in any::<u64>(), dir in any::<bool>()) {
        let t = MdcTable::new(ConfidenceConfig::paper());
        let a = t.index(Pc::new(pc * 4), hist, dir);
        let b = t.index(Pc::new(pc * 4), hist, dir);
        prop_assert_eq!(a, b);
    }
}
