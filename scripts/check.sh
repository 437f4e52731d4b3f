#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, and every test in the
# workspace. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# The structural guards below read non-test source: each file's text before
# its first #[cfg(test)], printed as "file:line: text". That attribute must
# open the file's `mod tests`, or the guards would stop reading early.
non_test() {
  awk '/#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' "$@"
}
src=$(git ls-files 'crates/*/src/*.rs' 'src/*.rs')
net=$(git ls-files 'crates/net/src/*.rs')

echo "== non-test source ends at mod tests (structural guard)"
# A #[cfg(test)] on a single item hides every line after it from the guards.
early=$(awk '/#\[cfg\(test\)\]/ { getline; if ($0 !~ /^mod tests \{$/) print FILENAME ":" FNR ": " $0; nextfile }' $src)
if [ -n "$early" ]; then
  echo "FAIL: a file's first #[cfg(test)] does not open its mod tests (move the item into mod tests):" >&2
  echo "$early" >&2
  exit 1
fi

echo "== one worker step, one fewer backend (structural guard)"
# The IS-GC worker step — draw the partition's mini-batch, sum its gradients
# — is written once, in crates/engine/src/worker.rs. Anywhere else in
# non-test library source the two calls it is made of may appear only in:
# the ml crate that defines them, the simulator's per-partition gradient
# cache (a different algorithm), and sched's `Model` impl for `ModelKind`,
# which only forwards the trait method.
copies=$(non_test $src | grep -E 'gradient_sum_into\(|\.minibatch\(' |
  grep -v -e '^crates/engine/src/worker\.rs:' -e '^crates/ml/' \
    -e '^crates/simnet/src/trainer\.rs:' -e '^crates/sched/src/spec\.rs:' || true)
if [ -n "$copies" ]; then
  echo "FAIL: a second copy of the worker step (use isgc_engine::WorkerStep):" >&2
  echo "$copies" >&2
  exit 1
fi
metadata=$(cargo metadata --offline --format-version 1)
# One crate checks the protocol, isgc-mc: it samples fault schedules on
# loopback and enumerates them, so no second checking crate (isgc-chaos).
if grep -q -e crossbeam -e isgc-runtime -e criterion -e isgc-chaos <<<"$metadata"; then
  echo "FAIL: the workspace depends on crossbeam, isgc-runtime, criterion or a second checking crate (isgc-chaos) again" >&2
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
lookups=$(non_test $net | grep -e 'fn slot_of' || true)
if [ "$(grep -c . <<<"$lookups")" != 1 ]; then
  echo "FAIL: want exactly one token -> slot lookup (Tier::slot_of), found:" >&2
  echo "$lookups" >&2
  exit 1
fi
silence=$(non_test $net | grep -e 'NetEvent::HeartbeatTimeout' |
  grep -v -e '^crates/net/src/tier\.rs:' -e '^crates/net/src/reactor\.rs:' || true)
if [ -n "$silence" ]; then
  echo "FAIL: heartbeat silence is decided outside crates/net/src/tier.rs:" >&2
  echo "$silence" >&2
  exit 1
fi

echo "== one clock in isgc-net (structural guard)"
# Every deadline in crates/net/src/ is read off Transport::now, which the
# reactor alone takes from the wall clock, and the reactor files them in one
# time-ordered set: no Instant in non-test source outside reactor.rs, and no
# timer wheel, tick or poll slice.
clocks=$(non_test $net | grep -e 'Instant' | grep -v -e '^crates/net/src/reactor\.rs:' || true)
slices=$(non_test $net | grep -E 'TimerWheel|const TICK\b|const POLL\b' || true)
if [ -n "$clocks$slices" ]; then
  echo "FAIL: a second clock, a timer wheel or a poll slice in isgc-net (read Transport::now, wait to the deadline):" >&2
  echo "$clocks$slices" >&2
  exit 1
fi

echo "== isgc-net spawns no thread; one session loop (structural guard)"
# A worker connection's session — heartbeats, handle, answer, held replies —
# is written once, in crates/net/src/swarm.rs, and runs on the caller's
# thread: run_worker is that loop with one member. A thread, a lock or a
# channel in non-test source under crates/net/src/, or a second call of
# WorkerCore::answer, is a second session loop coming back.
threading=$(non_test $net | grep -E 'thread::spawn|thread::Builder|Mutex|mpsc|AtomicBool' || true)
if [ -n "$threading" ]; then
  echo "FAIL: isgc-net spawns a thread or shares state across threads again:" >&2
  echo "$threading" >&2
  exit 1
fi
answers=$(non_test $net | grep -e '[.]answer[(]' || true)
if [ "$(grep -c . <<<"$answers")" != 1 ]; then
  echo "FAIL: want exactly one caller of WorkerCore::answer (swarm::serve), found:" >&2
  echo "$answers" >&2
  exit 1
fi

echo "== one worker handshake (structural guard)"
# A worker's Hello is sent once, by worker::dial (connect, and each window of
# the swarm's registration, reuse it). Outside wire.rs, which defines
# write_message_for_job and its job-0 wrapper, non-test source under
# crates/net/src/ calls it exactly once, in worker.rs; a second caller is a
# second handshake.
hellos=$(non_test $net | grep -e 'write_message_for_job(' | grep -v -e '^crates/net/src/wire\.rs:' || true)
if [ "$(grep -c . <<<"$hellos")" != 1 ] ||
  [ "$(grep -c -e '^crates/net/src/worker\.rs:' <<<"$hellos")" != 1 ]; then
  echo "FAIL: want exactly one write_message_for_job caller, in worker.rs (Hello), found:" >&2
  echo "$hellos" >&2
  exit 1
fi

echo "== one worker launcher (structural guard)"
# `launch` starts every worker as an `isgc swarm` process, which straggles
# by its master-assigned slot. A launched `isgc worker` would straggle by
# spawn order, so which slots straggle would race registration. Non-test
# src/cli.rs spawns no `worker` and spawns `swarm` in one place.
launchers=$(non_test src/cli.rs | grep -F -e '.arg("worker")' -e '.arg("swarm")' || true)
if [ "$(grep -c . <<<"$launchers")" != 1 ] || ! grep -q -F '.arg("swarm")' <<<"$launchers"; then
  echo "FAIL: want exactly one spawn of isgc swarm and none of isgc worker in src/cli.rs, found:" >&2
  echo "$launchers" >&2
  exit 1
fi

echo "== one invariant checker, one hash (structural guard)"
# The report invariants are written once, in crates/mc/src/invariants.rs,
# and the chaos harness and the model checker beside it both call it;
# FNV-1a and the SplitMix64 finalizer are written once, in
# crates/core/src/hash.rs. In non-test source under crates/*/src and src/
# each marker below occurs exactly once, and no module of crates/mc/src grows
# its own check_invariants again.
for marker in 'outside Theorem 10-11 bounds' 'despite {:?} at step' \
  '0x0000_0100_0000_01B3' '0xBF58_476D_1CE4_E5B9'; do
  hits=$(non_test $src | grep -F -e "$marker" || true)
  if [ "$(grep -c . <<<"$hits")" != 1 ]; then
    echo "FAIL: want '$marker' exactly once in non-test source, found:" >&2
    echo "$hits" >&2
    exit 1
  fi
done
if grep -rn 'fn check_invariants' crates/mc/src >&2; then
  echo "FAIL: a chaos harness checks invariants by hand again (call invariants::check_reports)" >&2
  exit 1
fi

echo "== only options someone sets, no aggregation tree (structural guard)"
# The optimizer is plain SGD, every scheme decode is bound-checked, a master
# checkpoints after every step, and the ML crate keeps only what a figure, a
# backend or a command calls: no non-test caller ever set these options to
# anything but their defaults, or called these items. The 2-level
# aggregation tree is deleted (DESIGN §7: it ignored no straggler and was
# slower than flat). None of them may come back into non-test source under
# crates/*/src and src/.
for marker in LrSchedule with_momentum with_weight_decay check_bounds \
  CheckpointConfig LogisticRegression Submaster ShardUpload into_tree_session \
  TreeCollector run_tree_chaos; do
  hits=$(non_test $src | grep -F -e "$marker" || true)
  if [ -n "$hits" ]; then
    echo "FAIL: '$marker' is back in non-test source (an option one value reaches is a constant; the tree is deleted):" >&2
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
decoders=$(non_test $net | grep -e 'f64::from_le_bytes' || true)
if [ "$(grep -c . <<<"$decoders")" != 1 ]; then
  echo "FAIL: want exactly one f64::from_le_bytes (wire::f64_le), found:" >&2
  echo "$decoders" >&2
  exit 1
fi
per_element=$(non_test $net | grep -e 'view[.]value[(]' || true)
if [ -n "$per_element" ]; then
  echo "FAIL: a codeword is decoded value by value again (use CodewordView::to_vec):" >&2
  echo "$per_element" >&2
  exit 1
fi

echo "== pending connections are clamped (structural guard)"
# A connection that has not introduced itself may send a Hello and nothing
# larger, so its header cannot make the master reserve MAX_PAYLOAD. The
# reactor therefore builds every assembler with an explicit clamp: no
# unclamped FrameAssembler::new( in non-test crates/net/src/reactor.rs.
unclamped=$(non_test crates/net/src/reactor.rs | grep -F -e 'FrameAssembler::new(' || true)
if [ -n "$unclamped" ]; then
  echo "FAIL: the reactor builds an unclamped assembler (use FrameAssembler::with_max_frame):" >&2
  echo "$unclamped" >&2
  exit 1
fi

echo "== one broadcast, one gather (structural guard)"
# A step's transport is Collector::broadcast, then Collector::gather, so the
# engine can send step t+1 before it evaluates step t's loss. A collector
# that broadcasts and waits in one call is the fused step coming back; no
# Rust file in the repository, tests included, may define one.
fused=$(git ls-files -- '*.rs' ':!:vendor/*' | xargs grep -n -F 'fn collect(&mut self, ctx: &StepContext' || true)
if [ -n "$fused" ]; then
  echo "FAIL: a collector fuses broadcast and wait again (implement broadcast and gather):" >&2
  echo "$fused" >&2
  exit 1
fi

echo "== no public item without a caller (structural guard)"
# Every pub fn, struct, enum, trait, type, const and static in non-test
# source under crates/*/src has a caller: a mention in non-test source under
# crates/*/src or src/, in tests/, crates/*/tests/, examples/ or
# benchmark/src/ (which may not change, so whatever it calls stays).
# Comments, use lines and definitions are not callers. Names are matched as
# words, so a name counts as used when it has more mentions than
# definitions. Items kept without a caller are allowlisted below, one
# "name reason" per line.
allowlist=$(cat <<'ALLOWLIST'
ALLOWLIST
)
called=$(non_test $src $(git ls-files 'tests/*.rs' 'crates/*/tests/*.rs' 'examples/*.rs' 'benchmark/src/*.rs') |
  awk '{ sub(/^[^:]*:[0-9]+: /, "") }
    in_use { if (/;/) in_use = 0; next }
    /^[ \t]*(pub(\([a-z]+\))? )?use / { if (!/;/) in_use = 1; next }
    /^[ \t]*\/\// { next }
    { print }' |
  sed -E -e 's/(const|async|unsafe) fn /fn /g' \
    -e "s/(^|[^A-Za-z0-9_'])(fn|struct|enum|trait|type|const|static)[ \t]+[A-Za-z_][A-Za-z0-9_]*/\1/g" |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
uncalled=$(non_test $(git ls-files 'crates/*/src/*.rs') |
  sed -nE 's/^([^:]*:[0-9]+): *pub ((const|async|unsafe) )*(fn|struct|enum|trait|type|const|static) +([A-Za-z_][A-Za-z0-9_]*).*/\5 \1/p' |
  awk 'FILENAME == ARGV[1] { called[$1]; next }
    FILENAME == ARGV[2] { if (NF == 1) print "allowlist entry without a reason: " $1; allowed[$1]; next }
    !($1 in called) && !($1 in allowed) { print $2 ": " $1 }' <(echo "$called") <(echo "$allowlist") - |
  sort)
if [ -n "$uncalled" ]; then
  echo "FAIL: public items nothing calls (delete them, or allowlist them with a reason):" >&2
  echo "$uncalled" >&2
  exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test (tier-1)"
# The root manifest's default-members are the whole workspace, so tier-1's
# bare `cargo test -q` runs every crate's tests; this is that run.
cargo test -q

echo "== kernel properties under optimised codegen"
# The kernels' bitwise claims are about the code that ships, and release
# codegen is where an add can be commuted; the workspace tests above run
# the debug build.
cargo test --release -q -p isgc-linalg --test kernel_props

echo "== cross-backend engine parity (net loopback vs simulator)"
cargo test -q --test engine_parity

echo "== metrics snapshots match their goldens (scripts/bless.sh to re-bless)"
# Runs un-blessed: any drift of the logical metric series from the files in
# tests/golden/ is a hard failure here, never a silent regeneration.
cargo test -q --test obs_snapshot

echo "== chaos smoke (seeded, deterministic)"
cargo run --release --quiet -- chaos --plan smoke --seed 42

echo "== blackout smoke (graceful degradation ladder, seeded, deterministic)"
cargo run --release --quiet -- chaos --plan blackout --seed 42

echo "== multi-tenant smoke (2 co-tenant jobs on loopback, pinned fingerprints)"
# Each job's fingerprint is a pure function of its config and seed, so a
# co-tenant run prints exactly these two values.
jobs_out=$(cargo run --release --quiet -- launch fr 8 2 --jobs 2 --steps 4)
echo "$jobs_out" | grep fingerprint
for fp in 2ce0f5e738eb6ce5 4bbcf0e7fa136205; do
  if ! grep -q "fingerprint $fp\$" <<<"$jobs_out"; then
    echo "FAIL: launch fr 8 2 --jobs 2 --steps 4 did not print fingerprint $fp:" >&2
    echo "$jobs_out" >&2
    exit 1
  fi
done

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
# The same loop through the CLI: `mc` writes the trace file and fails, and
# `chaos --plan <file>` reads it back and reproduces its fingerprint.
rm -f target/mc_trace.txt
if cargo run --release --quiet --features mc-mutation -- mc --shape flat3 \
  --trace-out target/mc_trace.txt > /dev/null 2>&1; then
  echo "FAIL: mc found no violation in the mc-mutation build" >&2
  exit 1
fi
if [ ! -s target/mc_trace.txt ]; then
  echo "FAIL: mc did not write target/mc_trace.txt" >&2
  exit 1
fi
replay_out=$(cargo run --release --quiet --features mc-mutation -- chaos --plan target/mc_trace.txt)
if ! grep -q 'matches the trace' <<<"$replay_out"; then
  echo "FAIL: the CLI replay of target/mc_trace.txt did not match its fingerprint:" >&2
  echo "$replay_out" >&2
  exit 1
fi
grep 'matches the trace' <<<"$replay_out"

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

echo "ok: fmt, structural guards (incl. non-test source ends at mod tests, one clock in isgc-net, no thread in isgc-net, one session loop, one worker handshake, one worker launcher, one invariant checker and one hash, only options someone sets and no aggregation tree, one f64 codec and no per-element ingest, pending connections are clamped, one broadcast and one gather, no public item without a caller), clippy, docs, tests, release kernel properties, engine parity, snapshots, chaos, blackout, multi-tenant fingerprints, reactor scale, straggling swarm, benchmark smoke, mc mutation loop and its CLI trace replay, and paper reproduction all clean"
