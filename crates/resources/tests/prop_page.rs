//! Property tests for the resource page codec: every page — including
//! the broker's trailing price and advertised-load fields — survives a
//! DER round-trip exactly, and pages that advertise neither broker
//! field encode byte-identically to the pre-broker format.

use proptest::prelude::*;
use unicore_ajo::VsiteAddress;
use unicore_codec::{DerCodec, Value};
use unicore_resources::{
    Architecture, PerformanceInfo, ResourceLimits, ResourcePage, SoftwareEntry, SoftwareKind,
};

fn architecture() -> impl Strategy<Value = Architecture> {
    (0usize..Architecture::ALL.len()).prop_map(|i| Architecture::ALL[i])
}

fn software_kind() -> impl Strategy<Value = SoftwareKind> {
    prop_oneof![
        Just(SoftwareKind::Compiler),
        Just(SoftwareKind::Library),
        Just(SoftwareKind::Package),
    ]
}

fn software() -> impl Strategy<Value = Vec<SoftwareEntry>> {
    proptest::collection::vec(
        (software_kind(), "[a-z0-9]{1,10}", "[0-9.]{1,6}").prop_map(|(kind, name, version)| {
            SoftwareEntry {
                kind,
                name,
                version,
            }
        }),
        0..4,
    )
}

/// Performance figures. GFlop/s ride the wire as an integer number of
/// milliGFlop/s, so generate on that grid to round-trip exactly.
fn performance() -> impl Strategy<Value = PerformanceInfo> {
    (0u64..10_000_000, 0u64..(1 << 32), 1u32..10_000).prop_map(
        |(milligflops, memory_per_node_mb, nodes)| PerformanceInfo {
            peak_gflops: milligflops as f64 / 1000.0,
            memory_per_node_mb,
            nodes,
        },
    )
}

fn limits() -> impl Strategy<Value = ResourceLimits> {
    (
        1u32..64,
        64u32..100_000,
        1u64..60,
        60u64..1_000_000,
        (0u64..(1 << 40), 0u64..(1 << 40), 0u64..(1 << 40)),
    )
        .prop_map(
            |(min_processors, max_processors, min_run_time_secs, max_run_time_secs, disks)| {
                ResourceLimits {
                    min_processors,
                    max_processors,
                    min_run_time_secs,
                    max_run_time_secs,
                    max_memory_mb: disks.0,
                    max_disk_permanent_mb: disks.1,
                    max_disk_temporary_mb: disks.2,
                }
            },
        )
}

/// A full page with arbitrary broker fields (0 means "not advertised").
fn page() -> impl Strategy<Value = ResourcePage> {
    (
        (
            "[A-Z]{2,6}",
            "[A-Z0-9]{2,6}",
            architecture(),
            "[A-Za-z0-9 .]{1,16}",
        ),
        performance(),
        limits(),
        software(),
        0u64..2_000_000,
        0u32..=100,
    )
        .prop_map(
            |(head, performance, limits, software, price, load)| ResourcePage {
                vsite: VsiteAddress::new(head.0, head.1),
                architecture: head.2,
                operating_system: head.3,
                performance,
                limits,
                software,
                price_per_node_hour_milli: price,
                advertised_load_pct: load,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_round_trips_through_der(p in page()) {
        let der = p.to_der();
        let back = ResourcePage::from_der(&der).expect("decodes");
        prop_assert_eq!(&back, &p);
        // Canonical: re-encoding yields identical bytes.
        prop_assert_eq!(back.to_der(), der);
    }

    #[test]
    fn broker_fields_are_trailing_optionals(p in page()) {
        // Stripping price and load must shorten (or preserve) the
        // encoding and still decode: the broker fields are strictly
        // additive over the pre-broker page format.
        let mut bare = p.clone();
        bare.price_per_node_hour_milli = 0;
        bare.advertised_load_pct = 0;
        let bare_der = bare.to_der();
        prop_assert!(bare_der.len() <= p.to_der().len());
        let back = ResourcePage::from_der(&bare_der).expect("bare page decodes");
        prop_assert_eq!(back, bare);
        // And the bare encoding carries no tagged trailer at all.
        let Value::Sequence(items) = unicore_codec::decode(&bare_der).expect("valid DER") else {
            panic!("page encodes as a sequence");
        };
        prop_assert!(items.iter().all(|v| !matches!(v, Value::Tagged(..))));
    }
}
