//! Property tests: SDF roundtrips for arbitrary datasets, checksum
//! stability, corruption detection, and the structural walk's
//! behaviour on sealed-but-malformed containers, and the step reader's
//! allocation-free repeat read.

use proptest::prelude::*;
use simstore::{fnv1a64, sdf, xxh64, Data, Dataset, Fnv1a, StorageArea};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation the current thread has requested
    /// (const-initialised and destructor-free, so the allocator may
    /// touch it at any point in a thread's life).
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    /// Allocations (including reallocations) the current thread has
    /// requested.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request so
/// `sdf_sealed_malformed_never_panics_or_overallocates` can see what a
/// decode tried to reserve (an over-committing OS would happily
/// "succeed" a multi-gigabyte `with_capacity`), and counting requests
/// so `cached_step_read_allocates_nothing` can see there are none.
struct RecordingAlloc;

fn record_alloc(size: usize) {
    let _ = LARGEST_ALLOC.try_with(|largest| largest.set(largest.get().max(size)));
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only
// touches `Cell<usize>`s and never allocates.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: RecordingAlloc = RecordingAlloc;

/// A steady-state repeat read of a resident step allocates nothing in
/// the reader: the file is cached, and the buffer the first read grew
/// is reused. Without this pin, buffer reuse could regress silently.
#[test]
fn cached_step_read_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("simstore-reader-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let area = StorageArea::create(&dir, u64::MAX).unwrap();
    let mut ds = Dataset::new(7, 0.5);
    ds.add_var("field", vec![1024], Data::F64(vec![1.25; 1024])).unwrap();
    let bytes = ds.encode().to_vec();
    area.publish("out-000007.sdf", &bytes).unwrap();
    area.publish("out-000008.sdf", &bytes[..100]).unwrap();
    let mut reader = area.reader();
    // Warm-up: a first read by name, a second that caches the file, and
    // a buffer grown to the larger step.
    for _ in 0..2 {
        reader.read(7, "out-000007.sdf").unwrap();
        reader.read(8, "out-000008.sdf").unwrap();
    }
    for _ in 0..100 {
        for (key, name, len) in [(7, "out-000007.sdf", bytes.len()), (8, "out-000008.sdf", 100)] {
            ALLOCS.with(|n| n.set(0));
            let read = reader.read(key, name).unwrap();
            let allocs = ALLOCS.with(Cell::get);
            assert_eq!(read, &bytes[..len]);
            assert_eq!(allocs, 0, "a cached read of step {key} allocated");
        }
    }
    assert_eq!(reader.cached(), 2);
    drop(reader);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn arb_data() -> impl Strategy<Value = (Vec<u64>, Data)> {
    // Shapes with ≤ 3 dims and ≤ 64 total elements, matching payload.
    let dims = prop::collection::vec(1u64..5, 0..3);
    dims.prop_flat_map(|dims| {
        let n: u64 = dims.iter().product();
        let n = n as usize;
        let data = prop_oneof![
            prop::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), n..=n)
                .prop_map(Data::F64),
            prop::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), n..=n)
                .prop_map(Data::F32),
            prop::collection::vec(any::<i64>(), n..=n).prop_map(Data::I64),
            prop::collection::vec(any::<u8>(), n..=n).prop_map(Data::U8),
        ];
        (Just(dims), data)
    })
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (
        any::<u64>(),
        -1e12f64..1e12,
        prop::collection::btree_map("[a-z]{1,8}", "[ -~]{0,16}", 0..5),
        prop::collection::vec(arb_data(), 0..4),
    )
        .prop_map(|(step, time, attrs, vars)| {
            let mut ds = Dataset::new(step, time);
            for (k, v) in attrs {
                ds.set_attr(k, v);
            }
            for (i, (dims, data)) in vars.into_iter().enumerate() {
                ds.add_var(format!("var{i}"), dims, data).unwrap();
            }
            ds
        })
}

/// `(offset, width)` of every structural field of `ds.encode()` — the
/// counts, lengths, tags and dims a reader must not trust — derived
/// from the layout in the `sdf` module doc, not from the codec.
fn structural_fields(ds: &Dataset) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut at = 4 + 4 + 8 + 8; // magic, version, step, simtime
    fn string(at: &mut usize, fields: &mut Vec<(usize, usize)>, s: &str) {
        fields.push((*at, 4));
        *at += 4 + s.len();
    }
    fields.push((at, 4)); // n_attrs
    at += 4;
    for (k, v) in ds.attrs() {
        string(&mut at, &mut fields, k);
        string(&mut at, &mut fields, v);
    }
    fields.push((at, 4)); // n_vars
    at += 4;
    for var in ds.vars() {
        string(&mut at, &mut fields, &var.name);
        fields.push((at, 1)); // dtype tag
        fields.push((at + 1, 1)); // ndims
        at += 2;
        for _ in &var.dims {
            fields.push((at, 8));
            at += 8;
        }
        at += var.data.len() * var.data.dtype().elem_size();
    }
    assert_eq!(at + 8, ds.encode().len(), "layout drifted from the module doc");
    fields
}

/// How to damage a container before re-sealing it.
#[derive(Clone, Debug)]
enum Damage {
    /// Overwrite the chosen structural field with `value` (truncated to
    /// the field's width).
    Field { which: prop::sample::Index, value: u64 },
    /// Cut the body (header included) at the chosen point.
    Truncate { at: prop::sample::Index },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    // Values near the honest ones keep the walk going deeper; the
    // extremes are the counts that used to size allocations.
    let value = prop_oneof![
        0u64..16,
        any::<u64>(),
        Just(u64::from(u32::MAX)),
        Just(1u64 << 63),
    ];
    prop_oneof![
        3 => (any::<prop::sample::Index>(), value)
            .prop_map(|(which, value)| Damage::Field { which, value }),
        1 => any::<prop::sample::Index>().prop_map(|at| Damage::Truncate { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sdf_sealed_malformed_never_panics_or_overallocates(ds in arb_dataset(), damage in arb_damage()) {
        let mut bytes = ds.encode().to_vec();
        bytes.truncate(bytes.len() - 8);
        match damage {
            Damage::Field { which, value } => {
                let fields = structural_fields(&ds);
                let (at, width) = fields[which.index(fields.len())];
                bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
            Damage::Truncate { at } => bytes.truncate(at.index(bytes.len() + 1)),
        }
        // Re-seal: the footer matches, so only the walk stands between
        // these bytes and the reader.
        let digest = xxh64(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());

        LARGEST_ALLOC.with(|largest| largest.set(0));
        let decoded = Dataset::decode(&bytes);
        let verified = sdf::verify(&bytes);
        let largest = LARGEST_ALLOC.with(Cell::get);

        // Same walk, same verdict, same words.
        prop_assert_eq!(
            format!("{:?}", decoded.as_ref().map(|_| ())),
            format!("{:?}", verified)
        );
        // Whatever a field claims, nothing is sized beyond a small
        // multiple of the bytes actually present (the multiple covers
        // `Variable` headers outweighing their 6-byte encodings).
        prop_assert!(largest <= 64 * bytes.len(), "allocated {} for {} bytes", largest, bytes.len());
    }

    #[test]
    fn sdf_roundtrip(ds in arb_dataset()) {
        let encoded = ds.encode();
        let decoded = Dataset::decode(&encoded).unwrap();
        prop_assert_eq!(&ds, &decoded);
        // Re-encoding the decoded dataset is byte-identical (canonical).
        prop_assert_eq!(encoded, decoded.encode());
    }

    #[test]
    fn sdf_digest_is_deterministic(ds in arb_dataset()) {
        prop_assert_eq!(ds.digest(), ds.clone().digest());
    }

    #[test]
    fn single_bitflip_always_detected(ds in arb_dataset(), flip in any::<prop::sample::Index>()) {
        let encoded = ds.encode().to_vec();
        let mut bad = encoded.clone();
        let pos = flip.index(bad.len());
        bad[pos] ^= 0x40;
        // Either the checksum catches it, or (if the flip hit the footer
        // itself) the mismatch is still reported.
        prop_assert!(Dataset::decode(&bad).is_err());
    }

    #[test]
    fn fnv_streaming_matches_oneshot(chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..8)) {
        let mut h = Fnv1a::new();
        let mut all = Vec::new();
        for c in &chunks {
            h.update(c);
            all.extend_from_slice(c);
        }
        prop_assert_eq!(h.finish(), fnv1a64(&all));
    }

    #[test]
    fn checksums_differ_on_prefix_extension(data in prop::collection::vec(any::<u8>(), 1..64)) {
        let shorter = &data[..data.len() - 1];
        // Not cryptographic, but these should essentially never collide
        // on a one-byte extension.
        prop_assert!(fnv1a64(shorter) != fnv1a64(&data) || xxh64(shorter) != xxh64(&data));
    }
}
