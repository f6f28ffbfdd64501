#!/bin/sh
# CI gate: formatting, lints (warnings are errors), tier-1 build + tests,
# structural greps, the paper's claims, rustdoc.
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

echo "==> a public surface no bigger than its callers: every pub item under crates/*/src is named by another crate's code outside #[cfg(test)], by examples/ or by gridbench/src, or is on the allowlist below with a reason; items only tests name are listed as test-only public and may not grow past test_only_public_max (offenders are listed)"
# One line per entry: crate, item name, reason. A pub item here needs no
# caller in the tree.
public_allow='
gateway set_site_hook       the paper s 4.2 interface for additional site-specific authentication, which a site installs
gateway disable             the site administrator suspends a UUDB entry without deleting it (4.2 site autonomy)
gateway is_dn_revoked       an operator asks whether the gateway is enforcing a revocation for a DN
gateway set_audit_capacity  an operator bounds the audit trail the gateway keeps (4.2)
store   FileBackend         the directory-backed journal a deployed site writes; the simulation and the tests journal to MemoryBackend
'
# Test-only public items: integration-test harness API (FaultPlan's
# builders, Federation::apply_fault_plan, Telemetry::finished_spans, ...)
# and the reference models property tests compare against. Lower this
# when the count falls.
test_only_public_max=169
scan=$(mktemp -d)
trap 'rm -rf "$scan"' EXIT
# The lines of the given files outside (code) or inside (test) their
# #[cfg(test)] modules, with // comments cut off.
part() {
    p=$1
    shift
    awk -v p="$p" '/^#\[cfg\(test\)\]$/ { t = 1 } (t ? "test" : "code") == p { sub(/\/\/.*/, ""); print } t && /^\}/ { t = 0 }' "$@"
}
idents() { grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u; }
rs() { find "$@" -name '*.rs' | sort; }
crates=$(ls -d crates/*/src | cut -d/ -f2)
for c in $crates; do
    part code $(rs "crates/$c/src") | idents >"$scan/$c.code"
    part test $(rs "crates/$c/src") | idents >"$scan/$c.test"
    # A type a public signature of the crate names (pub fn headers, pub
    # fields, pub enum and trait bodies) is reachable without being named.
    part code $(rs "crates/$c/src") | awk '
        sig { print; if (/[{;]/) sig = 0; next }
        body { print; if (match($0, /^ *\}/) && RLENGTH - 1 == indent) body = 0; next }
        /^ *pub ((const|async|unsafe) )*fn / { print; if (!/[{;]/) sig = 1; next }
        /^ *pub (enum|trait) [A-Za-z_0-9]+.*\{$/ { match($0, /^ */); indent = RLENGTH; body = 1; sub(/pub (enum|trait) [A-Za-z_0-9]+/, ""); print; next }
        /^ *pub (struct|type|const|static) / { sub(/pub (struct|type|const|static) [A-Za-z_0-9]+/, ""); print; next }
        /^ *pub [a-z_0-9]+: / { print }' | grep -oE '\b[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*' | sort -u >"$scan/$c.sigs"
    awk '/^#\[cfg\(test\)\]$/ { t = 1 }
        !t && match($0, /^ *pub ((const|async|unsafe) )*(fn|struct|enum|trait|type|const|static|mod|union) [A-Za-z_0-9]+/) {
            n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n] "\t" FILENAME ":" FNR
        }
        t && /^\}/ { t = 0 }' $(rs "crates/$c/src") | sort >"$scan/$c.defs"
done
part code $(rs examples gridbench/src) | idents >"$scan/outside.code"
cat $(rs tests crates/*/tests) | idents >"$scan/outside.test"
printf '%s\n' "$public_allow" | awk 'NF' >"$scan/allow"
: >"$scan/dead"
: >"$scan/testonly"
tab=$(printf '\t')
for c in $crates; do
    others() { for o in $crates; do [ "$o" = "$c" ] || echo "$scan/$o.$1"; done; }
    { awk -v c="$c" '$1 == c { print $2 }' "$scan/allow"; cat $(others code) "$scan/outside.code" "$scan/$c.sigs"; } | sort -u >"$scan/used"
    sort -mu $(others test) "$scan/outside.test" >"$scan/tested"
    cut -f1 "$scan/$c.defs" | sort -u | comm -23 - "$scan/used" >"$scan/unused"
    comm -12 "$scan/unused" "$scan/tested" | join -t "$tab" - "$scan/$c.defs" >>"$scan/testonly"
    comm -23 "$scan/unused" "$scan/tested" | join -t "$tab" - "$scan/$c.defs" >>"$scan/dead"
done
test_only=$(wc -l <"$scan/testonly")
echo "test-only public: $test_only items (at most $test_only_public_max)"
awk -F'\t' '{ print "  " $2 ": pub " $1 }' "$scan/testonly"
if {
    awk 'NF < 3 { print "allowlist entry without a reason: " $0 }' "$scan/allow"
    awk -F'\t' '{ print $2 ": pub " $1 " is named by no caller outside its crate" }' "$scan/dead"
    [ "$test_only" -le "$test_only_public_max" ] || echo "test-only public items rose to $test_only (at most $test_only_public_max)"
} | grep .; then
    exit 1
fi
rm -rf "$scan"
trap - EXIT

echo "==> one NJS engine on one thread: no crossbeam and no thread::scope in product code, shims or the workspace manifest (offenders are listed)"
if grep -rnE 'crossbeam|thread::scope' crates/*/src shims Cargo.toml; then
    exit 1
fi

echo "==> one engine: crates/njs/src has no shards: Vec<, job_stride, set_id_allocation, shard_of_job, vsite_shard or shard_store_mut, and crates/*/src no njs_shards (offenders are listed)"
if {
    grep -rnE 'shards: Vec<|job_stride|set_id_allocation|shard_of_job|vsite_shard|shard_store_mut' crates/njs/src
    grep -rn 'njs_shards' crates/*/src
} | grep .; then
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

echo "==> step.rs seam: sparse unordered ActionIds == dense ones, unknown node ids refused, job_visits pinned for chain3/fan16, a node ready behind the dispatch loop goes out in the same step, half-finished fan16 recovers to the uncrashed bytes"
cargo test -q --offline -p unicore-njs --test step_seam

echo "==> cost pins, release column (the table is printed): allocations in consign, step and query + purge, job visits, journal appends and bytes per chain3 job on one Usite with 8 Vsites; consign and step allocations and visits per fan16 job; spans and allocations over untraced per traced chain3 job; allocations, envelopes, messages and heap bytes retained after the purge per job of a two-site fed_burst burst, its allocations by phase (consign acks awaited, polling, purge), its polls, and the journal bytes both sites wrote per job; last moved (E39: an opened sweep refills a kept DN buffer): the fed_burst allocations and its polling and purge rows (cargo test checks the debug column)"
cargo test -q --release --offline -p unicore-integration-tests --test cost_pins -- --nocapture

echo "==> one path across a Vsite boundary: in crates/njs/src, xspace_read( and xspace_write( are called only from njs/cross.rs (the merge phase), and consign_internal( only from consign.rs, recover.rs and cross.rs (offenders are listed)"
if {
    grep -rnE '\b(xspace_read|xspace_write)\(' crates/njs/src | grep -vE 'fn (xspace_read|xspace_write)\(|^crates/njs/src/njs/cross\.rs:'
    grep -rnE '\bconsign_internal\(' crates/njs/src | grep -vE 'fn consign_internal\(|^crates/njs/src/njs/(consign|recover|cross)\.rs:'
} | grep .; then
    exit 1
fi

echo "==> one NJS boundary: crates/core/src/server.rs above #[cfg(test)] holds no HashMap<JobId, and no HashMap<Vec<u8>, (what a consign journals is the NJS's); crates/njs/src has no pub struct Njs, no Njs in lib.rs' pub use and no free pub fn usage_report( (offenders are listed)"
if {
    awk '/^#\[cfg\(test\)\]/ { exit } /HashMap<(JobId|Vec<u8>),/ { print FILENAME ":" FNR ":" $0 }' crates/core/src/server.rs
    grep -rnE 'pub struct Njs\b' crates/njs/src
    awk '/^pub use/ { u = 1 } u && /(^|[^A-Za-z_])Njs([^A-Za-z_]|$)/ { print FILENAME ":" FNR ":" $0 } /;/ { u = 0 }' crates/njs/src/lib.rs
    grep -rnE 'pub fn usage_report\(' crates/njs/src | grep -v 'usage_report(&self)'
} | grep .; then
    exit 1
fi

echo "==> one path per effect: crates/core/src/server.rs above #[cfg(test)] allocates a corr (self.next_corr += 1), constructs Pending::SubJobConsign { (match arms exempt) and names ActionStatus::NotSuccessful once each; crates/njs/src/njs/recover.rs has no begin_partial(, write_partial( or IncomingTransfer {; crates/njs/src/njs/cross.rs constructs Link { once; crates/*/src has no detached() (offenders are listed)"
# Prints its input unless it is exactly one line (none: the label).
once() {
    hits=$(cat)
    if [ "$(printf '%s' "$hits" | grep -c .)" -ne 1 ]; then
        printf '%s\n' "${hits:-$1: none found}"
    fi
}
if {
    server=crates/core/src/server.rs
    for rule in 'self\.next_corr \+= 1' 'ActionStatus::NotSuccessful'; do
        awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$server" | grep -E "$rule" | once "$server: $rule"
    done
    # A construction closes at its own indentation with '}', '},' or '};';
    # a match arm closes there with '} =>'.
    awk '/^#\[cfg\(test\)\]/ { exit }
        open && /^ *\}/ { match($0, /^ */); if (RLENGTH == indent) { if ($0 !~ /^ *\} =>/) print where; open = 0 } }
        !open && /Pending::SubJobConsign \{/ {
            where = FILENAME ":" FNR ":" $0
            if ($0 ~ /Pending::SubJobConsign \{.*\}/) { if ($0 !~ /\} =>/) print where }
            else { match($0, /^ */); indent = RLENGTH; open = 1 }
        }' "$server" | once "$server: Pending::SubJobConsign {"
    grep -HnE 'begin_partial\(|write_partial\(|IncomingTransfer \{' crates/njs/src/njs/recover.rs
    grep -HnE '\bLink \{' crates/njs/src/njs/cross.rs | grep -vE 'struct Link \{|-> Link \{' | once "crates/njs/src/njs/cross.rs: Link {"
    grep -rnE '::detached\(\)|fn detached\(' crates/*/src
} | grep .; then
    exit 1
fi

echo "==> one terminal path: under crates/njs/src/njs/, log_terminal( is called only inside terminate_node and log_job_done( only inside mark_done; step.rs, cross.rs and remote.rs assign no NodeState::Terminal; recover.rs has no states[, node_outcome_mut(, .done = or .finished_at = (offenders are listed)"
if {
    awk '/^ *\/\// { next }
        match($0, /fn [a-z_0-9]+/) { cur = substr($0, RSTART + 3, RLENGTH - 3) }
        /log_terminal\(/ && !/fn log_terminal\(/ && cur != "terminate_node" { print FILENAME ":" FNR ":" $0 }
        /log_job_done\(/ && !/fn log_job_done\(/ && cur != "mark_done" { print FILENAME ":" FNR ":" $0 }' crates/njs/src/njs/*.rs
    grep -HnE '[^=!]=[[:space:]]*NodeState::Terminal' crates/njs/src/njs/step.rs crates/njs/src/njs/cross.rs crates/njs/src/njs/remote.rs
    grep -HnE 'states\[|node_outcome_mut\(|\.done =|\.finished_at =' crates/njs/src/njs/recover.rs
} | grep .; then
    exit 1
fi

echo "==> recovery reads borrowed records, one decoder, one pointer per job: crates/njs/src calls no .replay() and no StoreEvent::from_der; crates/store/src/events.rs has exactly one TAG_CONSIGNED => decode arm; crates/njs/src/njs/mod.rs declares jobs: IdMap<JobId, Box<JobRuntime>> (offenders are listed)"
if {
    grep -rnE '\.replay\(\)|StoreEvent::from_der' crates/njs/src
    grep -HnE 'TAG_CONSIGNED =>' crates/store/src/events.rs | once "crates/store/src/events.rs: TAG_CONSIGNED =>"
    grep -HnE '^ *jobs: IdMap<JobId, Box<JobRuntime>>,' crates/njs/src/njs/mod.rs | once "crates/njs/src/njs/mod.rs: jobs: IdMap<JobId, Box<JobRuntime>>,"
} | grep .; then
    exit 1
fi

echo "==> a consign writes its AJO once: crates/njs/src builds no StoreEvent::JobConsigned { or StoreEvent::JobIncarnated { outside #[cfg(test)] (EventBatch::push_job_consigned / push_job_incarnated write them from borrowed parts); crates/njs/src/njs/consign.rs calls .to_der() only inside debug_assert; crates/ajo/src/job.rs names no HashMap or HashSet outside #[cfg(test)] (one position-indexed walk); EventStore::commit does not mem::take the batch (its buffer outlives the commit) (offenders are listed)"
# The lines of the given files outside their #[cfg(test)] items, with
# // comment lines dropped, as FILE:LINE:TEXT.
untested() {
    awk '/^#\[cfg\(test\)\]$/ { t = 1 } !t && !/^ *\/\// { print FILENAME ":" FNR ":" $0 } t && /^\}/ { t = 0 }' "$@"
}
if {
    untested $(find crates/njs/src -name '*.rs' | sort) | grep -E 'StoreEvent::Job(Consigned|Incarnated) \{' | grep -v '=>'
    untested crates/njs/src/njs/consign.rs | awk '/debug_assert/ { d = 1 } !d && /\.to_der\(\)/ { print } d && /\);[[:space:]]*$/ { d = 0 }'
    untested crates/ajo/src/job.rs | grep -E 'Hash(Map|Set)'
    awk '/ fn commit\(/ { c = 1 } c && /mem::take/ { print FILENAME ":" FNR ":" $0 } c && /^    \}/ { c = 0 }' crates/store/src/store.rs
} | grep .; then
    exit 1
fi

echo "==> a step pays per transition: crates/njs/src/njs/ names no BTreeSet outside #[cfg(test)] (the wake set is bits over job slots); crates/batch/src/system.rs keeps no Vec<QueuedEntry> (the queue is a ring) and collects nothing inside advance_to or schedule; script.rs's write_*_directive functions use no write! (offenders are listed)"
if {
    untested crates/njs/src/njs/*.rs | grep -E 'BTreeSet'
    untested crates/batch/src/system.rs | grep -E '\bVec<QueuedEntry>'
    untested crates/batch/src/system.rs | awk '/[ :]fn [a-z_0-9]+/ { f = ($0 ~ /[ :]fn (advance_to|schedule)\(/) } f && /\.collect\(/'
    untested crates/batch/src/script.rs | awk '/[ :]fn [a-z_0-9]+/ { f = ($0 ~ /[ :]fn write_[a-z]+_directive\(/) } f && /write!/'
} | grep .; then
    exit 1
fi

echo "==> replay is the live path: a server recovered after every tick of a two-site workload holds the live one's durable state (HUB with four Vsites, outcomes pinned)"
cargo test -q --offline -p unicore-integration-tests --test replay_equiv

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

echo "==> the paper's claims: every simulated table of EXPERIMENTS E1-E9 and E14-E17 recomputed on its committed seeds, its shape asserted (flat makespan over 2-13 sites, async >= sync at every loss rate, the first-submitted of two twin jobs starts first whoever owns it, quarantine short-cuts a retarget) and every number pinned"
cargo test -q --offline -p unicore-integration-tests --test paper_claims

echo "==> codec golden: DER of every wire/WAL type pinned to the pre-streaming encoder's bytes"
cargo test -q --offline -p unicore-integration-tests --test codec_golden

echo "==> hostile bytes: every DerCodec decoder fails closed (prefixes, bit flips, noise, terabyte length claims)"
cargo test -q --offline -p unicore-integration-tests --test hostile_bytes

echo "==> one frame-list grammar: a damaged u32 length | frame list delivers nothing, through the live path's split_frames and the federation's record walker alike"
cargo test -q --offline -p unicore-integration-tests --test hostile_bytes a_damaged_frame_list_delivers_nothing

echo "==> one record per peer per tick, one envelope per sweep: the link module without a network; a fed_burst-shaped run pinned on seeds 1, 7, 23 (outcomes, journals as decoded events per job) and under drop + duplicate + reorder; 32 polls are one sweep in one record each way, a lost or duplicated record is one envelope retried or absorbed with each poll handled once, a crash finds nothing of a server's unsent, a duplicated answer is delivered once, requests of one tick leave in call order"
cargo test -q --offline -p unicore --lib link
cargo test -q --offline -p unicore --test federation_tests -- burst_ record a_crash_loses a_duplicated_answer requests_of_one_tick

echo "==> sweeps without a network: the decoder refuses an empty and a nested sweep (protocol.rs); each member of a sweep is served as if alone — same answers, the rate limit and revocation per member, peer-only requests refused (server.rs)"
cargo test -q --offline -p unicore --lib sweep

echo "==> the peer-only rule in one place: 'is not a trusted peer server' appears exactly once in crates/core/src/server.rs above #[cfg(test)] (offenders are listed)"
peer_rule=$(awk '/^#\[cfg\(test\)\]/ { exit } /is not a trusted peer server/ { print FILENAME ":" FNR ":" $0 }' crates/core/src/server.rs)
if [ "$(printf '%s' "$peer_rule" | grep -c .)" -ne 1 ]; then
    echo "${peer_rule:-no peer-only check found}"
    exit 1
fi

echo "==> Request::Sweep { is constructed only by the client port in federation.rs (and by the decoder); tests and the codec corpus are exempt (offenders are listed)"
if for f in crates/*/src/*.rs crates/*/src/*/*.rs examples/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ":" $0 }' "$f"
done | grep -E 'Request::Sweep \{' | grep -vE 'Request::Sweep \{ (\.\.|requests) \} =>|matches!\(r, Request::Sweep \{ \.\. \}\)' |
    grep -vE '^crates/core/src/federation\.rs:[0-9]+: +_ => Request::Sweep \{ requests \},$|^crates/core/src/protocol\.rs:[0-9]+: +17 => Ok\(Request::Sweep \{$'; then
    exit 1
fi

echo "==> the reliability layer without a network or a server: sequence ledger, retry timers in (site name, corr) order, backoff pinned for seed 1, circuit closed -> open -> one probe -> closed, at-most-once reply cache (answers kept as the DER they were framed in, a duplicate past the requester's ack replayed byte for byte, the handler run once) and what a crash forgets"
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

echo "==> cross-Vsite effects: files that cross a Vsite boundary land, outcomes pinned and byte-identical across WAL replay, a crash mid-step, an abort with a running child and chaos seeds"
cargo test -q --offline -p unicore-integration-tests --test cross_vsite

echo "==> transport resumption ticket/cache properties; gateway front door: resumption, rate limiting, revocation, mux"
cargo test -q --offline -p unicore-transport --test prop_resumption
cargo test -q --offline -p unicore-gateway --test front_door_tests

echo "==> churn/abuse soak (seeds 1, 7, 23: reconnect storms, expiry, revocation, rate limits)"
cargo test -q --offline -p unicore-integration-tests --test churn

echo "==> rustdoc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "CI green."
