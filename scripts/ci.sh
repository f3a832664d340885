#!/usr/bin/env bash
# The full verification pipeline, runnable locally or from CI.
# Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace --release"
cargo test -q --workspace --release

echo "==> cargo test -q (the tier-1 run: debug build, so overflow checks and debug_assert!s run)"
cargo test -q

echo "==> cargo test -q --release --manifest-path perfbench/Cargo.toml (benchmark builds against the crates)"
# perfbench's lock is frozen with the benchmark. Cargo rewrites it when a
# crate perfbench builds gains or drops a dependency, and `--locked` does
# not catch a dropped one, so compare the file itself.
perfbench_lock="$(cksum < perfbench/Cargo.lock)"
cargo test -q --release --manifest-path perfbench/Cargo.toml
[ "$(cksum < perfbench/Cargo.lock)" = "$perfbench_lock" ] \
    || { echo "FATAL: building perfbench rewrote perfbench/Cargo.lock: a crate it builds gained or dropped a dependency" >&2; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "==> biaslab analyze smoke (static analyzer, zero simulations)"
./target/release/biaslab analyze perlbench --machine core2 --explain > /dev/null
./target/release/biaslab analyze all --machine o3cpu > /dev/null

echo "==> static-vs-dynamic rank correlation (all three machines)"
cargo test -q --release --test static_vs_dynamic

echo "==> biaslint smoke (CLI output must match the blessed goldens, zero simulations)"
cargo test -q --release --test lint_gate
for machine in core2 pentium4 o3cpu; do
    golden="crates/analyze/tests/golden/lint_${machine}.jsonl"
    ./target/release/biaslab lint all --machine "$machine" --json | diff -u "$golden" - \
        || { echo "FATAL: biaslab lint all --json drifted from ${golden}" >&2; exit 1; }
done
./target/release/biaslab lint perlbench --machine core2 > /dev/null

echo "==> repro all --effort quick (smoke, ephemeral)"
./target/release/repro all --effort quick --no-resume > /dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> telemetry trace smoke (repro --trace, then render it)"
BIASLAB_RESULTS_DIR="$tmp/results" ./target/release/repro fig1 --effort quick --no-resume --trace \
    2>/dev/null > /dev/null
trace_file="$tmp/results/traces/repro-fig1-quick.jsonl"
[ -s "$trace_file" ] || { echo "FATAL: --trace wrote no trace file" >&2; exit 1; }
./target/release/biaslab trace "$trace_file" --summary > /dev/null
./target/release/biaslab trace "$trace_file" --flame > /dev/null

echo "==> chaos smoke (repro all under a canned fault schedule)"
chaos_spec="seed=7,save.io=0.4,save.short=0.3,load.io=0.5,leader.panic=0.1,measure.delay=0.05,measure.runaway=0.02,worker.delay=0.2"
BIASLAB_RESULTS_DIR="$tmp/plain-results" ./target/release/repro all --effort quick \
    2>"$tmp/plain.err" > "$tmp/plain.out"
# A request counts a miss only where it leads a simulation, so a cold run
# reads as many misses as simulations, however its threads interleave.
grep -q '^\[repro\] totals: cache [0-9]* hit / \([0-9][0-9]*\) miss (\1 simulated, ' \
    "$tmp/plain.err" \
    || { echo "FATAL: misses and simulations differ: $(grep totals "$tmp/plain.err")" >&2; exit 1; }
BIASLAB_RESULTS_DIR="$tmp/chaos-results" ./target/release/repro all --effort quick \
    --faults "$chaos_spec" 2>/dev/null > "$tmp/chaos.out"
cmp "$tmp/plain.out" "$tmp/chaos.out" \
    || { echo "FATAL: stdout differs under fault injection" >&2; exit 1; }
leaked="$(find "$tmp/chaos-results" "$tmp/plain-results" -name '*.tmp' 2>/dev/null || true)"
[ -z "$leaked" ] || { echo "FATAL: leaked tmp files: $leaked" >&2; exit 1; }

echo "==> resume smoke (a resumed repro all is byte-identical, simulates and interprets nothing, writes nothing)"
results="$tmp/plain-results/measurements.jsonl"
cp "$results" "$tmp/before.jsonl"
mtime="$(stat -c %y "$results")"
BIASLAB_RESULTS_DIR="$tmp/plain-results" ./target/release/repro all --effort quick \
    2>"$tmp/resumed.err" > "$tmp/resumed.out"
cmp "$tmp/plain.out" "$tmp/resumed.out" \
    || { echo "FATAL: resumed stdout differs from cold stdout" >&2; exit 1; }
grep -q '^\[repro\] totals: cache [0-9]* hit / 0 miss (0 simulated, .*, 0 reference interpretation(s)$' \
    "$tmp/resumed.err" \
    || { echo "FATAL: the resumed run measured or interpreted again: $(grep totals "$tmp/resumed.err")" >&2; exit 1; }
# The same resume on one thread: the static analyzers share per-level
# facts across threads, so the serial and parallel paths must agree.
BIASLAB_RESULTS_DIR="$tmp/plain-results" ./target/release/repro all --effort quick --serial \
    2>/dev/null > "$tmp/resumed-serial.out"
cmp "$tmp/plain.out" "$tmp/resumed-serial.out" \
    || { echo "FATAL: resumed --serial stdout differs from cold stdout" >&2; exit 1; }
# A traced resume: no machine runs at all, so the trace carries no
# block-cache metric (a simulation outside the cache would add one).
BIASLAB_RESULTS_DIR="$tmp/plain-results" ./target/release/repro all --effort quick --trace \
    2>/dev/null > "$tmp/resumed-traced.out"
cmp "$tmp/plain.out" "$tmp/resumed-traced.out" \
    || { echo "FATAL: traced resumed stdout differs from cold stdout" >&2; exit 1; }
./target/release/biaslab trace "$tmp/plain-results/traces/repro-all-quick.jsonl" --summary \
    > "$tmp/resumed-summary.txt"
if grep -q 'uarch\.blockcache\.' "$tmp/resumed-summary.txt"; then
    echo "FATAL: the traced resumed run simulated: $(grep 'uarch\.blockcache\.' "$tmp/resumed-summary.txt")" >&2
    exit 1
fi
cmp "$tmp/before.jsonl" "$results" && [ "$(stat -c %y "$results")" = "$mtime" ] \
    || { echo "FATAL: the resumed run rewrote $results" >&2; exit 1; }

echo "==> serve smoke (daemon boot, canned transcript, chaos schedule)"
# Every daemon gets its own results directory: a daemon attaches
# measurements.jsonl under it, and the "cold, then cached" transcript must
# not be answered from a file another run left behind.
sock="$tmp/serve.sock"
BIASLAB_RESULTS_DIR="$tmp/serve-smoke-results" \
    ./target/release/biaslab serve --addr "unix:$sock" --workers 4 --queue 32 \
    > "$tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FATAL: serve daemon did not bind $sock" >&2; exit 1; }
# Canned transcript: the same measure request twice (cold, then cached)
# must produce byte-identical response lines.
./target/release/biaslab client measure hmmer --addr "unix:$sock" --id 11 --opt O3 \
    > "$tmp/client-cold.out"
./target/release/biaslab client measure hmmer --addr "unix:$sock" --id 11 --opt O3 \
    > "$tmp/client-cached.out"
cmp "$tmp/client-cold.out" "$tmp/client-cached.out" \
    || { echo "FATAL: cached daemon response differs from cold" >&2; exit 1; }
./target/release/biaslab client shutdown --addr "unix:$sock" > /dev/null
wait "$serve_pid"
[ ! -e "$sock" ] || { echo "FATAL: daemon leaked its socket file" >&2; exit 1; }
# Chaos schedule: a daemon under seeded socket faults must still converge
# to the exact same transcript via client retries, then shut down cleanly.
BIASLAB_FAULTS="seed=99,serve.accept=0.2,serve.write.short=0.2,serve.drop=0.15" \
    BIASLAB_RESULTS_DIR="$tmp/serve-chaos-results" \
    ./target/release/biaslab serve --addr "unix:$sock" --workers 4 --queue 32 \
    > "$tmp/serve-chaos.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FATAL: chaos daemon did not bind $sock" >&2; exit 1; }
./target/release/biaslab client measure hmmer --addr "unix:$sock" --id 11 --opt O3 \
    --attempts 12 > "$tmp/client-chaos.out"
cmp "$tmp/client-cold.out" "$tmp/client-chaos.out" \
    || { echo "FATAL: response under socket faults differs from fault-free" >&2; exit 1; }
./target/release/biaslab client shutdown --addr "unix:$sock" --attempts 12 > /dev/null || true
wait "$serve_pid" || true
[ ! -e "$sock" ] || { echo "FATAL: chaos daemon leaked its socket file" >&2; exit 1; }

echo "==> serve panic smoke (a worker outlives its panic and serves the next request)"
BIASLAB_FAULTS="seed=42,serve.worker_panic=@1" \
    BIASLAB_RESULTS_DIR="$tmp/serve-panic-results" \
    ./target/release/biaslab serve --addr "unix:$sock" --workers 1 --queue 32 \
    > "$tmp/serve-panic.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FATAL: panic-smoke daemon did not bind $sock" >&2; exit 1; }
# The first measurement job trips the one-shot panic; the client gets a
# typed error terminal, never a hang or a torn line.
./target/release/biaslab client measure hmmer --addr "unix:$sock" --id 21 \
    > "$tmp/client-panic.out"
grep -q '"code":"panic"' "$tmp/client-panic.out" \
    || { echo "FATAL: injected worker panic not surfaced as typed error" >&2; exit 1; }
# The one worker caught its panic; it answers the next request itself.
./target/release/biaslab client measure hmmer --addr "unix:$sock" --id 22 \
    > "$tmp/client-after-panic.out"
grep -q '"status":"ok"' "$tmp/client-after-panic.out" \
    || { echo "FATAL: no ok answer after the panic: $(cat "$tmp/client-after-panic.out")" >&2; exit 1; }
./target/release/biaslab client stats --addr "unix:$sock" --id 23 > "$tmp/stats-panic.out"
grep -q '"health":"ok"' "$tmp/stats-panic.out" \
    || { echo "FATAL: health is not ok after a panic: $(cat "$tmp/stats-panic.out")" >&2; exit 1; }
panics="$(sed -n 's/.*"serve\.worker\.panic":\([0-9]*\).*/\1/p' "$tmp/stats-panic.out")"
[ "$panics" = 1 ] \
    || { echo "FATAL: serve.worker.panic is '$panics', not 1" >&2; exit 1; }
./target/release/biaslab client shutdown --addr "unix:$sock" > /dev/null
wait "$serve_pid"

echo "==> serve SIGTERM drain smoke (in-flight sweep completes, socket removed)"
BIASLAB_RESULTS_DIR="$tmp/serve-results" \
    ./target/release/biaslab serve --addr "unix:$sock" --workers 2 --queue 32 \
    --drain-timeout 30000 > "$tmp/serve-drain.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FATAL: drain daemon did not bind $sock" >&2; exit 1; }
./target/release/biaslab client sweep gcc --addr "unix:$sock" --id 31 \
    --envs 0,64,128,256,512,1024 > "$tmp/client-drain.out" &
client_pid=$!
sleep 0.2
kill -TERM "$serve_pid"
wait "$client_pid" \
    || { echo "FATAL: in-flight sweep died during drain" >&2; exit 1; }
items="$(grep -c '"ev":"item"' "$tmp/client-drain.out" || true)"
[ "$items" -eq 6 ] \
    || { echo "FATAL: drain lost sweep items (got $items of 6)" >&2; exit 1; }
grep -q '"status":"ok"' "$tmp/client-drain.out" \
    || { echo "FATAL: drained sweep missing ok terminal" >&2; exit 1; }
wait "$serve_pid" \
    || { echo "FATAL: daemon exited nonzero after SIGTERM drain" >&2; exit 1; }
[ ! -e "$sock" ] || { echo "FATAL: drained daemon leaked its socket file" >&2; exit 1; }
leaked="$(find "$tmp/serve-results" -name '*.tmp' 2>/dev/null || true)"
[ -z "$leaked" ] || { echo "FATAL: drain leaked tmp files in $tmp/serve-results: $leaked" >&2; exit 1; }

echo "==> serve restart smoke (a restarted daemon answers from the results file it left)"
for phase in first restarted; do
    BIASLAB_RESULTS_DIR="$tmp/restart-results" \
        ./target/release/biaslab serve --addr "unix:$sock" --workers 2 --queue 32 \
        > "$tmp/serve-$phase.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
    [ -S "$sock" ] || { echo "FATAL: $phase daemon did not bind $sock" >&2; exit 1; }
    ./target/release/biaslab client sweep gcc --addr "unix:$sock" --id 41 --envs 0,64,128 \
        > "$tmp/restart-$phase.out"
    ./target/release/biaslab client stats --addr "unix:$sock" --id 42 > "$tmp/restart-$phase.stats"
    ./target/release/biaslab client shutdown --addr "unix:$sock" > /dev/null
    wait "$serve_pid"
done
cmp "$tmp/restart-first.out" "$tmp/restart-restarted.out" \
    || { echo "FATAL: the restarted daemon answered the sweep differently" >&2; exit 1; }
simulated="$(sed -n 's/.*"orch\.simulated":\([0-9]*\).*/\1/p' "$tmp/restart-restarted.stats")"
loaded="$(sed -n 's/.*"orch\.loaded":\([0-9]*\).*/\1/p' "$tmp/restart-restarted.stats")"
[ "$simulated" = 0 ] && [ "$loaded" = 3 ] \
    || { echo "FATAL: the restarted daemon simulated $simulated and loaded $loaded (want 0 and 3)" >&2; exit 1; }

echo "==> lockstep sweep smoke (perfbench sweep-ref: every child's counters digest must match its pin)"
# Sweeps whose setups share a functional pass at Ref size: 432
# simulations in lockstep groups of three. (The quick suite groups too,
# at Test size: fig2, abl-machine, abl-prefetch and ext-lint sweep each
# benchmark across machines, and the telemetry guard below checks its
# stdout against perfbench's pinned digest.) perfbench exits non-zero when
# a child's digest differs from the pinned one or an operation fails.
CARGO_TARGET_DIR=target bash perfbench/run.sh --workload sweep-ref --seed 1 --seconds 1 \
    --trace 0 > /dev/null \
    || { echo "FATAL: sweep-ref failed or its counters drifted from the pins" >&2; exit 1; }

echo "==> telemetry overhead guard (traced vs untraced quick suite, alternating runs)"
# perfbench alternates untraced and traced quick-suite runs and reports
# traced median / untraced median - 1; it also checks every run's stdout.
result="$(CARGO_TARGET_DIR=target bash perfbench/run.sh --workload quick-cold --seed 1 \
    --seconds 20 --trace 1 | tail -n 1)"
overhead="$(jq -r '.metrics["telemetry.overhead_pct"].value' <<<"$result")"
echo "    telemetry.overhead_pct ${overhead}, limit 20"
awk -v pct="$overhead" 'BEGIN { exit !(pct <= 20) }' \
    || { echo "FATAL: tracing costs ${overhead} % over the untraced quick suite" >&2; exit 1; }

echo "==> simulator guard (simulate-unprofiled, change vs parent minima)"
./scripts/bench.sh ci

echo "==> OK"
