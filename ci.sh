#!/bin/sh
# CI gate: formatting, lints (warnings are errors), tier-1 build + tests.
# All cargo invocations run offline; every dependency is vendored or
# shimmed in-tree (see shims/).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> unsafe containment: unsafe only in the three hardware kernels (crypto/src/sha256/x86.rs, crypto/src/chacha20/x86.rs, store/src/crc/x86.rs); their crates deny(unsafe_code), every other forbids it (offenders are listed)"
if grep -rnE 'unsafe[[:space:]]*(\{|fn|impl|extern)|allow\(unsafe_code\)' crates/*/src | grep -vE '^crates/(crypto/src/sha256|crypto/src/chacha20|store/src/crc)/x86\.rs:' ||
    grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs | grep -vE '^crates/(crypto|store)/src/lib\.rs$' ||
    grep -L '^#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs crates/store/src/lib.rs | grep .; then
    exit 1
fi

echo "==> one NJS engine on one thread: no crossbeam and no thread::scope in product code, shims or the workspace manifest (offenders are listed)"
if grep -rnE 'crossbeam|thread::scope' crates/*/src shims Cargo.toml; then
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test -q --offline

echo "==> crypto: SHA-256/HMAC/HKDF known answers on the dispatched and the scalar path; RSA PKCS#1 v1.5 signatures pinned for a fixed 512- and 1024-bit key; SHA-NI kernel == scalar differential"
cargo test -q --offline -p unicore-crypto --test kat --test prop_sha256

echo "==> crypto: ChaCha20 dispatched kernel == scalar differential, keystream / CSPRNG / sealed-record pins"
cargo test -q --offline -p unicore-crypto --test prop_chacha20
cargo test -q --offline -p unicore-crypto --test kat chacha20
cargo test -q --offline -p unicore-transport --test record_pins

echo "==> crypto: Montgomery modpow == plain square-and-multiply (moduli of 1-40 limbs, every base and exponent shape); mont_sqr == mont_mul by self; Oakley group 2 fixed-base public_value == general modpow"
cargo test -q --offline -p unicore-crypto --test prop_modpow

echo "==> store: dispatched CRC-32 (PCLMULQDQ kernel where the CPU has one) == table reference; fold constants re-derived from the polynomial"
cargo test -q --offline -p unicore-store --test prop_crc32

echo "==> byte-identity pins: DH public value + agreement and the client cache's master + ticket DER after a full and a resumed handshake, seeds 1, 7, 23"
cargo test -q --offline -p unicore-transport --test byte_identity

echo "==> gridbench builds and smokes against the product crates (it is its own package, outside cargo test)"
cargo test -q --offline --manifest-path gridbench/Cargo.toml

echo "==> golden journal: WAL segments + outcomes pinned; journal format: a checked-in pre-by-reference journal recovers and compacts, compaction == replay, manifest mismatches fail closed"
cargo test -q --offline -p unicore-integration-tests --test golden --test journal_format

echo "==> bulk identity: a two-site 1 MiB + 5 B transfer pinned (outcome, delivered file, both journals, append counts); bytes in flight survive an overwrite and a purge; local copies byte-equal; the oracle's byte rule"
cargo test -q --offline -p unicore-integration-tests --test bulk_identity

echo "==> file contents are shared, not copied: no .data.clone(), .data.to_vec() or read_for_transfer(..).to_vec() in the NJS, the Uspace or the server outside lines tagged '// wire: Vec<u8> field' (offenders are listed)"
if grep -rnE '\.data\.(clone|to_vec)\(\)|read(_entry)?_for_transfer\(.*\.to_vec\(\)' crates/njs/src crates/uspace/src crates/core/src/server.rs | grep -v '// wire: Vec<u8> field'; then
    exit 1
fi

echo "==> incarnation golden: script text pinned for 5 architectures x 5 execute bodies x 2 queues, directive lines == the dialect module's spelling, every script matches its own dialect only"
cargo test -q --offline -p unicore-njs --test incarnation_golden

echo "==> flight identity: what/detail of every event the NJS records, a failed outcome's DER with its ring, no formatting while the recorder is off"
cargo test -q --offline -p unicore-njs --test flight_identity
cargo test -q --offline -p unicore-telemetry flight

echo "==> step.rs seam: sparse unordered ActionIds == dense ones, unknown node ids refused, job_visits pinned for chain3/fan16, half-finished fan16 recovers to the uncrashed bytes"
cargo test -q --offline -p unicore-njs --test step_seam

echo "==> monitoring plane tests"
cargo test -q --offline -p unicore-integration-tests --test monitor_grid
cargo test -q --offline -p unicore-client monitor
cargo test -q --offline -p unicore --test prop_protocol

echo "==> snapshot algebra proptests (merge/delta laws)"
cargo test -q --offline -p unicore-telemetry --test prop_aggregate

echo "==> grid scale: 100-Usite aggregation plane"
cargo test -q --offline -p unicore-integration-tests --test gridscale

echo "==> SLO alert log: chaos replays byte-identical (seeds 1, 7, 23)"
cargo test -q --offline -p unicore-integration-tests --test chaos chaos_replays_alert_log_byte_identical

echo "==> codec: DerWriter == the recursive reference encoder byte for byte; DerWriter/DerReader == reference across length boundaries and on damaged input"
for suite in prop_encode_equiv prop_stream_equiv; do cargo test -q --offline -p unicore-codec --test "$suite"; done

echo "==> codec golden: DER of every wire/WAL type pinned to the pre-streaming encoder's bytes"
cargo test -q --offline -p unicore-integration-tests --test codec_golden

echo "==> hostile bytes: every DerCodec decoder fails closed (prefixes, bit flips, noise, terabyte length claims)"
cargo test -q --offline -p unicore-integration-tests --test hostile_bytes

echo "==> one frame-list grammar: a damaged u32 length | frame list delivers nothing, through the live path's split_frames and the federation's record walker alike"
cargo test -q --offline -p unicore-integration-tests --test hostile_bytes a_damaged_frame_list_delivers_nothing

echo "==> one record per peer per tick: the link module without a network; a fed_burst-shaped run pinned on seeds 1, 7, 23 (outcomes, journals as decoded events per job) and under drop + duplicate + reorder; 32 polls are one record each way, a lost or duplicated record is 32 envelopes each handled once, a crash finds nothing of a server's unsent"
cargo test -q --offline -p unicore --lib link
cargo test -q --offline -p unicore --test federation_tests -- burst_ record a_crash_loses

echo "==> the reliability layer without a network or a server: sequence ledger, retry timers in (site name, corr) order, backoff pinned for seed 1, circuit closed -> open -> one probe -> closed, at-most-once reply cache and what a crash forgets"
cargo test -q --offline -p unicore --lib reliability

echo "==> one way onto the wire: in crates/core/src, net.send( appears only in Federation::flush (federation.rs) and the split-gateway LAN relay, and only link.rs and reliability.rs name the Outbox (offenders are listed)"
if grep -rnE 'net\.send\(' crates/core/src | grep -vE '^crates/core/src/federation\.rs:.*([^.]net\.send\(src, dst, GATEWAY_PORT, |self\.net\.send\(nodes\.gateway, nodes\.njs, 9_000, )' ||
    grep -rnE '\bOutbox\b|outbox\.(push|flush)\(' crates/core/src | grep -vE '^crates/core/src/(link|reliability)\.rs:'; then
    exit 1
fi

echo "==> one place builds a site's server (SiteConfig::boot): ShardedNjs::new(, Gateway::new( and UnicoreServer::new( do not appear in federation.rs, grid.rs or reliability.rs, and reliability.rs knows neither the Network nor UnicoreServer (offenders are listed)"
if grep -nE '(ShardedNjs|Gateway|UnicoreServer)::new\(' crates/core/src/federation.rs crates/core/src/grid.rs crates/core/src/reliability.rs ||
    grep -nE '\b(Network|UnicoreServer)\b' crates/core/src/reliability.rs; then
    exit 1
fi

echo "==> no DerCodec type goes through the Value tree (offenders are listed)"
if grep -rnE 'fn (to|from)_value' crates/*/src | grep -v '^crates/codec/'; then
    exit 1
fi

echo "==> chaos soak suite (seeds 1, 7, 23 x every fault class)"
cargo test -q --offline -p unicore-integration-tests --test chaos

echo "==> data plane: chunked transfers resume byte-identical under chaos"
cargo test -q --offline -p unicore-integration-tests --test chaos dataplane

echo "==> peer-consign idempotency proptests"
cargo test -q --offline -p unicore --test prop_peer_consign

echo "==> retry-counter gate (telemetry must account for every retry)"
cargo test -q --offline -p unicore --test federation_tests backoff_bounds_time_to_unreachable_verdict
cargo test -q --offline -p unicore --test federation_tests dead_peer_is_quarantined_then_probed_back_in

echo "==> broker + resource page property suites"
cargo test -q --offline -p unicore-broker --test prop_broker
cargo test -q --offline -p unicore-resources --test prop_page

echo "==> broker: chaos retarget soak (seeds 1, 7, 23 x quarantined/dark)"
cargo test -q --offline -p unicore-integration-tests --test broker

echo "==> sharded NJS: determinism suite (byte-identity across shard counts 1/2/3/4/8, WAL replay, crash mid-step, chaos seeds)"
cargo test -q --offline -p unicore-integration-tests --test sharded

echo "==> transport resumption ticket/cache properties; gateway front door: resumption, rate limiting, revocation, mux"
cargo test -q --offline -p unicore-transport --test prop_resumption
cargo test -q --offline -p unicore-gateway --test front_door_tests

echo "==> churn/abuse soak (seeds 1, 7, 23: reconnect storms, expiry, revocation, rate limits)"
cargo test -q --offline -p unicore-integration-tests --test churn

echo "==> benches compile"
cargo bench --offline --no-run

echo "==> e12 gates: sharded throughput >= 10k jobs/sec, no federated regression, telemetry overhead < 5% under sharding"
cargo bench -q --offline -p unicore-bench --bench e12_throughput -- skip_micro_benches
for gate in sharded federated telemetry; do grep -q "\"verdict_$gate\": \"PASS\"" BENCH_e12_throughput.json; done

echo "==> e17 gate: resumed handshake >= 5x faster than full at p50 (bench exits nonzero on FAIL)"
cargo bench -q --offline -p unicore-bench --bench e17_churn -- skip_micro_benches
grep -q '"verdict_resumption": "PASS"' BENCH_e17_churn.json

echo "==> rustdoc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "CI green."
