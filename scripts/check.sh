#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, and every test in the
# workspace. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== one worker step, one fewer backend (structural guard)"
# The IS-GC worker step — draw the partition's mini-batch, sum its gradients
# — is written once, in crates/engine/src/worker.rs. Anywhere else in
# non-test library source (a file's text before its first #[cfg(test)]) the
# two calls it is made of may appear only in: the ml crate that defines them,
# the simulator's per-partition gradient cache (a different algorithm), and
# sched's `Model` impl for `ModelKind`, which only forwards the trait method.
copies=$(git ls-files 'crates/*/src/*.rs' 'src/*.rs' |
  grep -v -e '^crates/engine/src/worker\.rs$' -e '^crates/ml/' \
    -e '^crates/simnet/src/trainer\.rs$' -e '^crates/sched/src/spec\.rs$' |
  while read -r f; do
    awk -v f="$f" '/#\[cfg\(test\)\]/ { exit }
      /gradient_sum_into\(|\.minibatch\(/ { print f ":" FNR ": " $0 }' "$f"
  done)
if [ -n "$copies" ]; then
  echo "FAIL: a second copy of the worker step (use isgc_engine::WorkerStep):" >&2
  echo "$copies" >&2
  exit 1
fi
metadata=$(cargo metadata --offline --format-version 1)
if grep -q -e crossbeam -e isgc-runtime -e criterion <<<"$metadata"; then
  echo "FAIL: the workspace depends on crossbeam, isgc-runtime or criterion again" >&2
  exit 1
fi

echo "== one performance record (structural guard)"
# Every performance number lives in BENCHMARK.json + benchmark/; a second
# record beside it is how the two came to disagree.
if [ -n "$(git ls-files 'BENCH_*.json')" ]; then
  echo "FAIL: a BENCH_*.json is tracked again; performance numbers belong to benchmark/" >&2
  exit 1
fi

echo "== one peer table, one collection loop (structural guard)"
# What a connection's departure, silence and late frames do to a peer slot
# is decided once, in crates/net/src/tier.rs: in non-test source under
# crates/net/src/ the token -> slot lookup is defined once, and heartbeat
# silence is matched only there and in the reactor that raises it.
net_src() {
  git ls-files 'crates/net/src/*.rs' | while read -r f; do
    awk -v f="$f" -v pat="$1" '/#\[cfg\(test\)\]/ { exit }
      $0 ~ pat { print f ":" FNR ": " $0 }' "$f"
  done
}
lookups=$(net_src 'fn slot_of')
if [ "$(grep -c . <<<"$lookups")" != 1 ]; then
  echo "FAIL: want exactly one token -> slot lookup (Tier::slot_of), found:" >&2
  echo "$lookups" >&2
  exit 1
fi
silence=$(net_src 'NetEvent::HeartbeatTimeout' |
  grep -v -e '^crates/net/src/tier\.rs:' -e '^crates/net/src/reactor\.rs:' || true)
if [ -n "$silence" ]; then
  echo "FAIL: heartbeat silence is decided outside crates/net/src/tier.rs:" >&2
  echo "$silence" >&2
  exit 1
fi

echo "== isgc-net spawns no thread; one session loop (structural guard)"
# A worker connection's session — heartbeats, handle, answer, held replies —
# is written once, in crates/net/src/swarm.rs, and runs on the caller's
# thread: run_worker is that loop with one member. A thread, a lock or a
# channel in non-test source under crates/net/src/, or a second call of
# WorkerCore::answer, is a second session loop coming back.
threading=$(net_src 'thread::spawn|thread::Builder|Mutex|mpsc|AtomicBool')
if [ -n "$threading" ]; then
  echo "FAIL: isgc-net spawns a thread or shares state across threads again:" >&2
  echo "$threading" >&2
  exit 1
fi
answers=$(net_src '[.]answer[(]')
if [ "$(grep -c . <<<"$answers")" != 1 ]; then
  echo "FAIL: want exactly one caller of WorkerCore::answer (swarm::serve), found:" >&2
  echo "$answers" >&2
  exit 1
fi

echo "== one invariant checker, one hash (structural guard)"
# The report invariants are written once, in crates/chaos/src/invariants.rs,
# and the chaos harness, the tree harness and the model checker all call it;
# FNV-1a and the SplitMix64 finalizer are written once, in
# crates/core/src/hash.rs. In non-test source under crates/*/src and src/
# each marker below occurs exactly once, and no chaos module grows its own
# check_invariants again.
src_with() {
  git ls-files 'crates/*/src/*.rs' 'src/*.rs' | while read -r f; do
    awk -v f="$f" -v s="$1" '/#\[cfg\(test\)\]/ { exit }
      index($0, s) { print f ":" FNR ": " $0 }' "$f"
  done
}
for marker in 'outside Theorem 10-11 bounds' 'despite {:?} at step' \
  '0x0000_0100_0000_01B3' '0xBF58_476D_1CE4_E5B9'; do
  hits=$(src_with "$marker")
  if [ "$(grep -c . <<<"$hits")" != 1 ]; then
    echo "FAIL: want '$marker' exactly once in non-test source, found:" >&2
    echo "$hits" >&2
    exit 1
  fi
done
if grep -rn 'fn check_invariants' crates/chaos/src >&2; then
  echo "FAIL: a chaos harness checks invariants by hand again (call invariants::check_reports)" >&2
  exit 1
fi

echo "== only options someone sets (structural guard)"
# The optimizer is plain SGD, every scheme decode is bound-checked, a master
# checkpoints after every step, and the ML crate keeps only what a figure, a
# backend or a command calls: no non-test caller ever set these options to
# anything but their defaults, or called these items. None of them may come
# back into non-test source under crates/*/src and src/.
for marker in LrSchedule with_momentum with_weight_decay check_bounds \
  CheckpointConfig LogisticRegression; do
  hits=$(src_with "$marker")
  if [ -n "$hits" ]; then
    echo "FAIL: '$marker' is back in non-test source (an option one value reaches is a constant):" >&2
    echo "$hits" >&2
    exit 1
  fi
done

echo "== one f64 codec, no per-element ingest (structural guard)"
# Wire frames and checkpoint files share one little-endian codec in
# crates/net/src/wire.rs that converts whole vectors in one pass: in
# non-test source under crates/net/src/ `f64::from_le_bytes` occurs once
# (the word decoder every f64 read goes through), and no codeword upload is
# decoded value by value.
decoders=$(net_src 'f64::from_le_bytes')
if [ "$(grep -c . <<<"$decoders")" != 1 ]; then
  echo "FAIL: want exactly one f64::from_le_bytes (wire::f64_le), found:" >&2
  echo "$decoders" >&2
  exit 1
fi
per_element=$(net_src 'view[.]value[(]')
if [ -n "$per_element" ]; then
  echo "FAIL: a codeword is decoded value by value again (use CodewordView::to_vec):" >&2
  echo "$per_element" >&2
  exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test"
cargo test --workspace -q

echo "== cross-backend engine parity (net loopback vs simulator)"
cargo test -q --test engine_parity

echo "== metrics snapshots match their goldens (scripts/bless.sh to re-bless)"
# Runs un-blessed: any drift of the logical metric series from the files in
# tests/golden/ is a hard failure here, never a silent regeneration.
cargo test -q --test obs_snapshot

echo "== chaos smoke (seeded, deterministic)"
cargo run --release --quiet -- chaos --plan smoke --seed 42

echo "== sub-master crash smoke (2-level tree, seeded, deterministic)"
cargo run --release --quiet -- chaos --plan submaster-crash --seed 42

echo "== blackout smoke (graceful degradation ladder, seeded, deterministic)"
cargo run --release --quiet -- chaos --plan blackout --seed 42

echo "== multi-tenant smoke (2 jobs x 2-level tree on loopback)"
cargo run --release --quiet -- launch fr 8 2 --jobs 2 --tree 2 --steps 4

echo "== reactor scale smoke (64 workers from one swarm process)"
# The master must stay an event loop: its process may use at most the
# reactor/state-machine thread plus the CLI main thread, no matter how many
# workers connect. (It is in fact 1 thread — the reactor is polled inline.)
swarm_out=$(cargo run --release --quiet -- launch fr 64 2 --w 62 --steps 4 --swarm 1)
echo "$swarm_out" | tail -6
threads=$(echo "$swarm_out" | sed -n 's/^master threads during run: //p')
if [ -z "$threads" ] || [ "$threads" -gt 2 ]; then
  echo "FAIL: master ran with ${threads:-unknown} threads (expected <= 2)" >&2
  exit 1
fi

echo "== straggling swarm smoke (stragglers ignored, not slept through; heartbeats kept)"
# An injected delay is a send deadline in the one session loop, so a swarm's
# stragglers hold their replies independently: the master's wait is the fast
# members' latency, not the sum of the delays (2 x 100 ms here), and a member
# held past the heartbeat timeout silences nobody, itself included.
straggle_out=$(cargo run --release --quiet -- launch cr 8 2 --w 6 --steps 6 --swarm 1 --slow 2 --delay-ms 100)
waited=$(echo "$straggle_out" | sed -n 's|^waited/step (mean): \([0-9.]*\) ms$|\1|p')
if [ -z "$waited" ] || ! awk -v w="$waited" 'BEGIN { exit !(w < 50) }'; then
  echo "FAIL: a swarm with 2 stragglers of 100 ms waited ${waited:-unknown} ms per step (expected < 50)" >&2
  exit 1
fi
held_out=$(cargo run --release --quiet -- launch fr 8 2 --w 7 --steps 5 --swarm 1 --slow 1 --delay-ms 700 --heartbeat-timeout-ms 300)
if ! grep -q '^steps:              5$' <<<"$held_out"; then
  echo "FAIL: a member held past the heartbeat timeout took its swarm down:" >&2
  echo "$held_out" >&2
  exit 1
fi
echo "waited/step (mean): $waited ms with 2 of 8 members held 100 ms; 5 steps with a member held 700 ms past a 300 ms heartbeat timeout"

echo "== end-to-end benchmark smoke (4 workloads, 1 s windows, correctness gate)"
benchmark/run.sh --smoke | tail -1

echo "== model-checker mutation loop (seeded bug: find -> shrink -> replay)"
# The mc-mutation feature weakens the real master's stale guard; the gated
# suite must find the bug by exhaustive search, shrink the schedule to its
# 1-minimal core, and reproduce the exact failure fingerprint on a real
# loopback cluster.
cargo test --release -q -p isgc-mc --features mc-mutation --test mutation

echo "== paper reproduction matches results/ (./run_all_experiments.sh to regenerate)"
# The ten figure binaries are bit-deterministic. Runs un-blessed, like the
# metrics snapshots above: any drift from the checked-in results/ is a hard
# failure here, never a silent regeneration.
rm -rf target/results
./run_all_experiments.sh target/results > /dev/null
if ! diff -r -x README.md results target/results; then
  echo "FAIL: results/ is stale: regenerate with ./run_all_experiments.sh and update EXPERIMENTS.md" >&2
  exit 1
fi

echo "ok: fmt, structural guards (incl. no thread in isgc-net, one session loop, one invariant checker and one hash, only options someone sets, one f64 codec and no per-element ingest), clippy, docs, tests, engine parity, snapshots, chaos, blackout, multi-tenant, reactor scale, straggling swarm, benchmark smoke, mc mutation loop, and paper reproduction all clean"
