#!/bin/sh
# Repository quality gate: formatting, lints, and the tier-1 build+test.
# Run from anywhere; everything is relative to the repo root.
set -eu

cd "$(dirname "$0")/.."

# Every node of an in-process TCP cluster owns a connection to each peer,
# so the 32-node reactor census holds about 2*32*31 = 1984 connected
# sockets: above the common 1024 soft descriptor limit. Raise the soft
# limit to 4096 where the hard limit allows it (never lower it).
soft=$(ulimit -Sn)
hard=$(ulimit -Hn)
if [ "$soft" != unlimited ] && [ "$soft" -lt 4096 ] &&
    { [ "$hard" = unlimited ] || [ "$hard" -ge 4096 ]; }; then
    ulimit -Sn 4096
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: crate-internal unit tests and vendored shims"
# Tier-1 `cargo test -q` covers only the root package.
cargo test -q --workspace

echo "==> rustdoc gate: cargo doc --no-deps -D warnings"
# Explicit -p list: the vendored stand-ins are workspace members and are
# not held to the documentation bar.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p tokq -p tokq-core -p tokq-protocol -p tokq-obs \
    -p tokq-simnet -p tokq-workload -p tokq-analysis -p tokq-bench \
    -p tokq-sys

echo "==> unsafe gate: every crate but crates/sys forbids unsafe code"
for lib in crates/*/src/lib.rs; do
    case "$lib" in
        crates/sys/*) continue ;;
    esac
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "$lib lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> sharded smoke: 4 resources on 4 shards over one live cluster"
cargo run --release --quiet --example sharded_locks >/dev/null

echo "==> model-checker smoke: bounded exploration of arbiter + baselines"
cargo run --release --quiet --example explore_smoke

echo "==> chaos smoke: seeded fault schedule against a live 5-node cluster"
cargo run --release --quiet --example chaos_smoke

echo "==> tcp pipeline: head-of-line regression + wire-codec fuzz"
cargo test -q --test tcp_pipeline

echo "==> reactor: one thread per CPU, no writers (5- and 32-node TCP, channel) + socket census + reactor-mate isolation + lost-wakeup stress"
# A thread per node, connection or peer, a leaked socket, or a wedged
# reactor fails here.
cargo test -q --test reactor

echo "==> caller-driven locks: release build, then the contended TCP split twice"
# Lock calls step their node on the calling thread: a lost wakeup, a late
# grant kept, contending clients that stop alternating, a contended grant
# that wakes its waiter more than once (a lock convoy), a silent lock
# cycle that allocates on the calling thread, or a contended critical
# section that allocates more than its pinned count fails here.
cargo test --release -q --test caller_driven
cargo test --release -q --test alloc_free_lock
cargo test --release -q --test self_grant
cargo test --release -q --test self_grant

echo "==> one CPU: every node on one reactor, as in the perfbench runs"
# available_parallelism follows the affinity mask, so one reactor drives
# every node of each cluster, the shape perfbench measures. A lock convoy
# shows only here: a waiter woken under a lock preempts its waker on the
# one CPU and blocks again (caller_driven's convoy test, with the
# contended allocation case of alloc_free_lock).
taskset -c 0 cargo test --release -q --test reactor --test caller_driven --test self_grant \
    --test alloc_free_lock

echo "==> tcp bench smoke: grant latency, healthy vs one peer dead"
cargo run --release --quiet -p tokq-bench --bin tcp_pipeline -- --rounds 3

echo "==> perfbench smoke: 2-s contended TCP run with its correctness checks"
python3 perfbench/run.py --workload tcp_contended --seed 1 --seconds 2 --trace 0 >/dev/null

echo "==> perfbench smoke: 2-s uncontended TCP run with its REQUEST-share shape check"
python3 perfbench/run.py --workload tcp_uncontended --seed 1 --seconds 2 --trace 0 >/dev/null

echo "==> perfbench smoke: 2-s simulated token-loss run with its determinism checks"
python3 perfbench/run.py --workload sim_token_loss --seed 1 --seconds 2 --trace 0 >/dev/null

echo "==> all checks passed"
