//! Property tests for the histogram: bucket counts always sum to the
//! observation count and buckets agree with their bounds; journal
//! numbers round-trip through JSON.

use proptest::prelude::*;
use rayfade_telemetry::{Histogram, Json, HISTOGRAM_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bucket_counts_sum_to_observation_count(
        values in prop::collection::vec(-1.0e3f64..1.0e3, 0..200),
        extremes in prop::collection::vec(0usize..5, 0..10),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        // Mix in the awkward inputs regardless of what the range drew.
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, 1e300];
        for &k in &extremes {
            h.observe(specials[k]);
        }
        let n = (values.len() + extremes.len()) as u64;
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), n);
    }

    #[test]
    fn every_value_lands_within_its_bucket_bound(v in 1.0e-12f64..1.0e9) {
        let k = Histogram::bucket_index(v);
        prop_assert!(v <= Histogram::upper_bound(k));
        if k > 0 {
            prop_assert!(
                v > Histogram::upper_bound(k - 1),
                "value {} should exceed bucket {}'s bound", v, k - 1
            );
        }
        prop_assert!(k < HISTOGRAM_BUCKETS);
    }

    #[test]
    fn json_numbers_round_trip(n in -1.0e15f64..1.0e15) {
        let text = Json::Num(n).to_string();
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        prop_assert_eq!(n.to_bits(), back.to_bits());
    }
}
