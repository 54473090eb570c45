//! Property tests for the `smartfeat-par` pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use smartfeat_rng::check;

#[test]
fn par_map_preserves_order_and_length_for_arbitrary_shapes() {
    check::cases(64, |rng| {
        let n = rng.gen_range(0..200usize);
        let threads = rng.gen_range(1..12usize);
        let items: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(rng.next_u64() | 1))
            .collect();
        let out = smartfeat_par::par_map(threads, &items, |&x| x.wrapping_add(1));
        assert_eq!(out.len(), items.len());
        for (o, x) in out.iter().zip(&items) {
            assert_eq!(*o, x.wrapping_add(1));
        }
    });
}

#[test]
fn par_map_matches_serial_map_exactly() {
    check::cases(48, |rng| {
        let n = rng.gen_range(1..150usize);
        let threads = rng.gen_range(2..10usize);
        let items = check::vec_f64(rng, n..n + 1, -100.0..100.0);
        let serial: Vec<u64> = items.iter().map(|x| (x * 3.5 - 1.0).to_bits()).collect();
        let parallel = smartfeat_par::par_map(threads, &items, |x| (x * 3.5 - 1.0).to_bits());
        assert_eq!(parallel, serial);
    });
}

#[test]
fn panicking_task_propagates_without_deadlock() {
    check::cases(24, |rng| {
        let n = rng.gen_range(2..60usize);
        let threads = rng.gen_range(2..8usize);
        let bad = rng.gen_range(0..n);
        let result = catch_unwind(AssertUnwindSafe(|| {
            smartfeat_par::par_map_indexed(threads, n, |i| {
                assert_ne!(i, bad, "poisoned task");
                i
            })
        }));
        assert!(result.is_err(), "panic at index {bad} must propagate");
    });
}

#[test]
fn nested_scopes_complete() {
    check::cases(16, |rng| {
        let outer = rng.gen_range(1..5usize);
        let inner = rng.gen_range(1..5usize);
        let count = AtomicUsize::new(0);
        let totals = smartfeat_par::par_map_indexed(outer.min(4), outer, |_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..inner)
                    .map(|_| s.spawn(|| count.fetch_add(1, Ordering::Relaxed)))
                    .collect();
                let mut joined = 0;
                for h in handles {
                    h.join().expect("inner task finished");
                    joined += 1;
                }
                joined
            })
        });
        assert_eq!(totals, vec![inner; outer]);
        assert_eq!(count.load(Ordering::Relaxed), outer * inner);
    });
}
