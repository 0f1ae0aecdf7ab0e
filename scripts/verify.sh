#!/usr/bin/env bash
# Repo verification: build, tier-1 tests, and lint-as-error.
#
# Usage: scripts/verify.sh [profile]
#   (default) — full build + tests + rustfmt check + clippy + bench
#               compile check
#   chaos     — only the campaign determinism suite: the seed-matrix
#               chaos grid, the passthrough-equivalence pin, the
#               whole-store grids (ping/TCP × churn × 1/2/8 threads and
#               1/2/5/8 threads) that hold every entry point to run()'s
#               store row for row, the campaign unit tests (credit
#               settlement, durable runs, shard merges), the retry
#               policy's unit tests (the one attempt loop that campaign
#               rounds and API creates share), the fault-plan unit tests
#               (epochs, reroutes inside a cut window, cuts that
#               disconnect), the route table's re-route around a cut on
#               a chain link and around a cut that leaves a branch one
#               exit, the fault router against one Router::with_disabled
#               per epoch on random fleets under chaos and 24-cut plans,
#               the golden store digest of a chaos campaign whose cuts
#               reroute sampled pairs, and the API's route-body goldens
#               (a chaos create with retries among them) — fast enough
#               to run on every fault-model or round-loop change
#   crash     — only the durability suite: the kill-at-any-round
#               recovery sweeps (10 seeds × 3 kill rounds × 3 thread
#               counts × {fault-free, chaos, chaos with retries and
#               refunds}), byte-level damage rejection, the journal
#               unit tests (the takeover-base checkpoint and the rejected
#               checkpoints among them), the slicing-by-8 CRC against
#               the byte-at-a-time oracle, the journal-bytes golden
#               (fault-free, chaos and TCP chaos × 1/2 threads × fsync
#               on/off × complete and crashed after round 1), and the
#               campaign durability tests (the checkpoint-cadence test
#               pins that a cadence leaves the journal's bytes alone)
#   api       — only the API serving path: the concurrent reader/writer
#               stress test over real TCP, the api crate's unit tests
#               (sharded state, stats and results bodies built once per
#               entry, resume validation, server, the route body
#               goldens) and property suite (hostile create bodies, DTO
#               round trips), the JSON module's unit tests, and the HTTP
#               integration suite
#   frame     — only the columnar-store / incremental-frame suite: the
#               store's row/column accessor equivalence, the frame's
#               append-vs-rebuild bit-equality grid (clean + chaos
#               campaigns), the figure-pipeline golden equivalence,
#               and the API's one-build-per-measurement counter pins
#   reactor   — only the connection-level adversarial battery against
#               the readiness-driven event loop: slowloris vs fast
#               sessions, split-at-every-byte pipelined parsing,
#               mid-response disconnects, 503 shed + drain recovery
#               (each at 1/2/8 reactor threads), the idle soak's
#               thread-count pin (SHEARS_SOAK_SESSIONS=10000 where
#               `ulimit -n` admits ≥20k fds), the quiet server's park
#               count, reactor-vs-in-process byte equality, the server
#               and HTTP unit tests, the reactor's park-length and
#               cold-sweep policy tests, and the parser chunk-partition
#               property tests
#   dist      — only the distributed-execution suite over the work
#               stream: the stream-framing property tests
#               (chunk-partition independence, arbitrary bytes and bit
#               flips never panic or merge), the api crate's transport
#               and work-queue unit tests (assignment, stream close,
#               heartbeats, fencing, pushes, frame dedup), the dist
#               crate's unit tests, and the recovery harness (clean
#               1/2/4/8-worker bit-identity, the kill grid — 5 seeds ×
#               kill round {0,1,2} × {2,4} workers × {reassign,
#               restart-resume} — hang/delay chaos, degraded vs strict
#               completion), every merge pinned bit-identical to the
#               sequential run
#   delay     — only the route-table and delay-model pins: the
#               generator's reference vectors and the first SimRng draws
#               (the published SmallRng stream), the netsim routing
#               tests (one search per chain head against the per-pair
#               router), ping tests (the per-traversal oracle, with a
#               probe-round pass through the hop-wait memo) and
#               topology tests (the per-link delay records), plus the
#               route-table-vs-router grid on 600-probe fleets, the
#               build's thread-count invariance, and two output pins
#               that every route-table reader feeds: `shears reproduce`
#               at --scale 60x2 (stdout length and FNV-1a digest,
#               tests/reproduce.rs) and the API's route-body goldens
#               (service::tests::json_route_bodies_are_pinned, fault-free
#               and chaos creates and traceroutes); then the inline
#               check below on the release `shears` those tests built
#   kernels   — only the column-kernel suite: percentile/median and
#               region_min_scan pinned bit for bit against the test-only
#               scalar reference (percentile against Ecdf too), on
#               adversarial columns and on the 20-seed chaos-campaign
#               grid; the stats pins (two-pointer KS, selection
#               bootstrap, Summary-over-Ecdf); and the store unit tests
#
# Every profile command fails when its filter matches no test (cargo
# itself passes a filter that matches nothing). The full and delay
# profiles also fail when `nm` (binutils) lists an out-of-line
# AccessLink::sample_one_way_ms in the release `shears` binary: the
# per-hop loop of every ping calls it, and no test notices when it
# stops being inlined there.
# An unknown profile prints this usage and exits 2.
#
# The workspace has no external crates and commits its Cargo.lock; the
# full profile builds with --locked --offline, so a registry dependency
# cannot come back unnoticed.
set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-full}"

# `cargo test --release "$@"`, also failing when the run passed no test
# (the `N passed` counts of its `test result:` lines sum to 0).
tests() {
    local status=(0 0)
    cargo test --release "$@" |
        awk '{ print; fflush() } /^test result:/ { n += $4 } END { exit (n == 0) }' ||
        status=("${PIPESTATUS[@]}")
    if [ "${status[0]}" -ne 0 ]; then
        exit "${status[0]}"
    fi
    if [ "${status[1]}" -ne 0 ]; then
        echo "verify: 'cargo test --release $*' ran no test" >&2
        exit 1
    fi
}

# Fails when the release `shears` binary holds an out-of-line copy of
# the access hop's delay draw, which must be inlined into the ping
# loop's per-hop sampler.
hot_path_inlined() {
    local bin="${CARGO_TARGET_DIR:-target}/release/shears"
    local symbol='shears_netsim::access::AccessLink::sample_one_way_ms'
    if ! command -v nm >/dev/null; then
        echo "verify: nm not found; it is needed to check that $symbol is inlined" >&2
        exit 1
    fi
    local symbols
    symbols="$(nm -C "$bin")"
    if ! grep -qF 'shears_netsim::' <<<"$symbols"; then
        echo "verify: $bin lists no shears_netsim symbol; cannot check the inline" >&2
        exit 1
    fi
    if grep -F "$symbol" <<<"$symbols"; then
        echo "verify: $bin has an out-of-line $symbol; the ping loop lost its inline" >&2
        exit 1
    fi
    echo "verify: $symbol is inlined in $bin"
}

case "$profile" in
chaos)
    echo "==> chaos profile: seed-matrix fault determinism and whole-store grids"
    tests --test determinism chaos
    tests --test determinism passthrough
    tests --test determinism campaign_is_bit_identical
    tests --test determinism parallel_execution
    tests -p shears-atlas campaign::tests::
    tests -p shears-atlas recovery::
    tests -p shears-netsim fault::
    tests -p shears-netsim routing::tests::reroutes_match_the_router_when_a_cut_severs_or_extends_a_chain
    tests --test proptests fault_router_matches_per_epoch_routers_under_generated_plans
    tests -p shears-atlas campaign::tests::chaos_cut_reroutes_match_their_golden_store_digest
    tests -p shears-api service::tests::json_route_bodies_are_pinned
    ;;
crash)
    echo "==> crash profile: kill-at-any-round durability sweep"
    tests --test crash_recovery
    tests -p shears-atlas journal::
    tests -p shears-atlas journal::tests::crc32_slicing_by_8_matches_the_bytewise_oracle
    tests -p shears-atlas campaign::tests::journal_bytes_match_their_golden_digests
    tests -p shears-atlas campaign::tests::durable
    tests -p shears-atlas campaign::tests::crash
    tests -p shears-atlas campaign::tests::resume
    tests -p shears-atlas campaign::tests::checkpoint
    ;;
api)
    echo "==> api profile: concurrent serving-path consistency"
    tests --test api_concurrency
    tests -p shears-api
    tests -p shears-atlas json::
    tests --test api_integration
    ;;
frame)
    echo "==> frame profile: columnar store + incremental frame equivalence"
    tests -p shears-atlas store::
    tests -p shears-analysis frame::
    tests --test determinism columnar_store_accessors
    tests --test determinism incremental_frame_append
    tests --test determinism frame_indexes_reproduce
    tests -p shears-api service::tests::repeated_stats_gets_build_the_frame_once
    tests -p shears-api service::tests::stats_cache_invalidates
    ;;
reactor)
    echo "==> reactor profile: adversarial connection-level battery"
    tests --test api_reactor
    tests -p shears-api server::
    tests -p shears-api reactor::
    tests -p shears-api http::
    tests --test api_concurrency
    tests --test proptests parser_
    ;;
dist)
    echo "==> dist profile: fault-tolerant distributed execution over the work stream"
    tests --test proptests stream_
    tests -p shears-api transport::
    tests -p shears-api work::
    tests -p shears-dist
    tests --test dist_recovery
    ;;
delay)
    echo "==> delay profile: route table and delay model bit-identity"
    tests -p shears-geo rng::
    tests -p shears-netsim stochastic::
    tests -p shears-netsim routing::
    tests -p shears-netsim ping::
    tests -p shears-netsim topology::
    tests --test determinism route_table
    tests --test reproduce
    tests -p shears-api service::tests::json_route_bodies_are_pinned
    hot_path_inlined
    ;;
kernels)
    echo "==> kernels profile: kernel-vs-scalar bit-equality"
    tests -p shears-analysis kernels::
    tests -p shears-analysis stats::
    tests -p shears-atlas store::
    ;;
full)
    echo "==> cargo build --release"
    cargo build --release --workspace --locked --offline
    hot_path_inlined

    echo "==> cargo test"
    cargo test -q --workspace --locked --offline

    echo "==> cargo fmt --check"
    cargo fmt --all --check

    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets --locked --offline -- -D warnings

    echo "==> cargo bench --no-run (no bench targets: builds the bench-profile test harnesses)"
    cargo bench --no-run --workspace --locked --offline

    echo "verify: OK"
    exit 0
    ;;
*)
    echo "verify: unknown profile '$profile'" >&2
    sed -n '4,/^# An unknown profile/p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
    ;;
esac

echo "verify ($profile): OK"
