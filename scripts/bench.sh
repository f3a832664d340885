#!/usr/bin/env bash
# Compares the parent commit (HEAD^) with the change (HEAD) on biaslab's
# benchmark, alternating the two sides under randomized setups.
#
#   scripts/bench.sh <label>     # writes BENCH_<label>.json
#   scripts/bench.sh ci          # the simulator guard alone; writes nothing
#
# Both commits are checked out as git worktrees under .bench_build/ and
# built there; the build directories are kept, so a rerun rebuilds only
# what changed. Uncommitted edits are not measured.
#
# Simulator rounds (every label): 2 untimed warm-up rounds, then 10 rounds
# of each side's hotpath executable, the parent first in odd rounds. The
# guard fails when the change's minimum `simulate-unprofiled` exceeds the
# parent's by more than 5 %.
#
# perfbench pairs (every label but `ci`): 10 pairs per workload in
# BENCHMARK.json, run with --seed <pair> (seeds 1-10 are pinned in
# perfbench/pins.txt), --seconds <run_seconds> and --trace 0, the parent
# first in odd pairs. Each end-to-end metric gets each side's median and
# quartiles over the pairs, the change/parent median ratio, the pairs the
# change won, and a verdict: `gain` (won at least 9 in 10 pairs and the
# medians differ by more than the parent's quartile distance),
# `regression` (median worse by more than BENCHMARK.json's bound),
# `unresolved` (either side's quartile distance exceeds the bound and not
# every change run beats every parent run) or `no-regression`.
#
# Setup randomization: every round and pair draws, from its seed, the
# length of a padding environment variable (0-4095 bytes) and the length
# of the directory name (1-255) each side's binaries run from. Both sides
# get the same values; both move the initial stack, which holds the
# environment strings and the executable's path.
#
# Exits non-zero when the simulator guard fails, any verdict reads
# `regression`, any operation failed or any run failed a correctness
# check. Needs git, cargo, awk and jq.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: scripts/bench.sh <label>}"
ROUNDS=10
PAIRS=10
SIM_LIMIT=1.05
BUILD=.bench_build
STAGE="$BUILD/setup"
DATA="$BUILD/data-$LABEL"

die() { echo "FATAL: $*" >&2; exit 1; }

change="$(git rev-parse --verify 'HEAD^{commit}')"
parent="$(git rev-parse --verify --quiet 'HEAD^^{commit}')" \
    || die "HEAD has no parent commit to compare with (a shallow clone needs fetch-depth 2)"

# Checks out <rev> as the worktree $BUILD/<side> and builds the four
# executables there; prints the hotpath executable's path.
build() {
    local side="$1" rev="$2" wt="$BUILD/$1"
    git worktree prune
    if [ -f "$wt/.git" ]; then
        git -C "$wt" checkout -q --detach "$rev"
    else
        rm -rf "$wt"
        git worktree add -q --detach "$wt" "$rev"
    fi
    echo "==> building $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$wt/Cargo.toml" \
        --target-dir "$wt/target" -p biaslab-bench -p biaslab-cli --bins >&2
    cargo build --release --offline --quiet --manifest-path "$wt/perfbench/Cargo.toml" \
        --target-dir "$wt/target" >&2
    cargo bench --offline --quiet --no-run --message-format=json \
        --manifest-path "$wt/Cargo.toml" --target-dir "$wt/target" \
        -p biaslab-bench --bench hotpath \
        | jq -r 'select(.target.name == "hotpath" and .executable != null) | .executable'
}
hotpath_parent="$(build parent "$parent")"
hotpath_change="$(build change "$change")"
[ -x "$hotpath_parent" ] && [ -x "$hotpath_change" ] || die "no hotpath executable built"

# Draws seed <n>'s setup: "<padding bytes> <directory-name length>".
draw() {
    awk -v s="$1" 'BEGIN { srand(s); printf "%d %d\n", int(rand() * 4096), 1 + int(rand() * 255) }'
}

# Links each side's executables into sibling directories named with
# <len> characters; sets dir_parent and dir_change.
stage() {
    local len="$1" side hotpath
    rm -rf "$STAGE"
    for side in parent change; do
        local dir
        dir="$STAGE/$(printf "%-${len}s" "${side:0:1}" | tr ' ' x)"
        mkdir -p "$dir"
        ln -f "$BUILD/$side/target/release/"{repro,biaslab,perfbench} "$dir/"
        hotpath="hotpath_$side"
        ln -f "${!hotpath}" "$dir/hotpath"
        printf -v "dir_$side" '%s' "$dir"
    done
}
trap 'rm -rf "$STAGE"' EXIT

# The two sides of round or pair <n> in running order.
order() { if [ $(($1 & 1)) -eq 1 ]; then echo parent change; else echo change parent; fi; }

rm -rf "$DATA"
mkdir -p "$DATA"

echo "==> simulator rounds: parent ${parent:0:12} vs change ${change:0:12}"
# Rounds -1 and 0 are untimed warm-ups.
for round in $(seq -1 "$ROUNDS"); do
    read -r pad len <<<"$(draw "$round")"
    stage "$len"
    for side in $(order "$round"); do
        dir="dir_$side"
        us="$(BENCH_PAD="$(printf "%${pad}s" '')" "${!dir}/hotpath" --bench \
            | awk '$1 == "bench" && $2 == "simulate-unprofiled" { print $3 }')"
        [ -n "$us" ] || die "$side hotpath printed no simulate-unprofiled"
        [ "$round" -ge 1 ] || continue
        jq -nc --argjson round "$round" --arg side "$side" --argjson pad "$pad" \
            --argjson len "$len" --argjson us "$us" \
            '{round: $round, side: $side, pad: $pad, name_len: $len, us: $us}' >>"$DATA/sim.jsonl"
        echo "    round $round $side: $us us (pad $pad B, name $len)"
    done
done
sim="$(jq -s --argjson limit "$SIM_LIMIT" '
    (map(select(.side == "parent") | .us) | min) as $p
    | (map(select(.side == "change") | .us) | min) as $c
    | {metric: "simulate-unprofiled", unit: "us", limit_ratio: $limit,
       rounds: (group_by(.round) | map({round: .[0].round, pad: .[0].pad, name_len: .[0].name_len,
                first: (if .[0].round % 2 == 1 then "parent" else "change" end),
                parent: (map(select(.side == "parent"))[0].us),
                change: (map(select(.side == "change"))[0].us)})),
       parent_min: $p, change_min: $c, ratio: ($c / $p),
       verdict: (if $c / $p > $limit then "fail" else "pass" end)}' "$DATA/sim.jsonl")"
jq -r '"    minima: parent \(.parent_min) us, change \(.change_min) us, ratio \(.ratio * 1000 | round / 1000) (limit \(.limit_ratio)): \(.verdict)"' <<<"$sim"

if [ "$LABEL" = ci ]; then
    [ "$(jq -r .verdict <<<"$sim")" = pass ] \
        || die "simulate-unprofiled: change minimum exceeds the parent's by more than 5 %"
    exit 0
fi

seconds="$(jq -r .run_seconds BENCHMARK.json)"
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for pair in $(seq 1 "$PAIRS"); do
        read -r pad len <<<"$(draw "$pair")"
        stage "$len"
        for side in $(order "$pair"); do
            dir="dir_$side"
            result="$(BENCH_PAD="$(printf "%${pad}s" '')" "${!dir}/perfbench" \
                --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0 \
                | tail -n 1 || true)"
            jq -e .metrics <<<"$result" >/dev/null 2>&1 \
                || die "$side perfbench $workload seed $pair printed no result"
            jq -c --arg w "$workload" --argjson pair "$pair" --arg side "$side" \
                --argjson pad "$pad" --argjson len "$len" \
                '{workload: $w, pair: $pair, side: $side, pad: $pad, name_len: $len,
                  correct, attempted, failed, metrics: (.metrics | map_values(.value))}' \
                <<<"$result" >>"$DATA/runs.jsonl"
            echo "    $workload pair $pair $side: $(jq -r '.metrics | to_entries | map("\(.key)=\(.value.value)") | join(" ")' <<<"$result")"
        done
    done
done

out="BENCH_${LABEL}.json"
jq -s --arg name "$LABEL" --arg parent "$parent" --arg change "$change" \
    --argjson sim "$sim" --slurpfile bench BENCHMARK.json '
    # Quartile cut <i> of 4, as perfbench/src/stats.rs computes it.
    def cut($i): sort as $s | ($s | length) as $n
        | ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
        | ($i * ($n + 1) - $j * 4) as $d
        | if $n == 1 then $s[0] else ($s[$j - 1] * (4 - $d) + $s[$j] * $d) / 4 end;
    . as $runs
    | {label: $name, parent: $parent, change: $change, simulator: $sim,
       setups: ($runs | map({pair, pad, name_len}) | unique_by(.pair)),
       workloads: ($bench[0].workloads | map(.name as $w
         | ($runs | map(select(.workload == $w))) as $r
         | {key: $w, value: {
             operations: (["parent", "change"] | map(. as $side
               | {key: $side, value: ($r | map(select(.side == $side))
                   | {attempted: (map(.attempted) | add), failed: (map(.failed) | add),
                      incorrect_runs: (map(select(.correct | not)) | length)})})
               | from_entries),
             metrics: ($bench[0].end_to_end | map(. as $m
               | ($r | map(select(.side == "parent")) | sort_by(.pair) | map(.metrics[$m.name])) as $p
               | ($r | map(select(.side == "change")) | sort_by(.pair) | map(.metrics[$m.name])) as $c
               | (if $m.better == "lower" then 1 else -1 end) as $sign
               | ($p | cut(2)) as $pm | ($c | cut(2)) as $cm
               | ($p | cut(3) - cut(1)) as $piqr | ($c | cut(3) - cut(1)) as $ciqr
               | ([range(0; $p | length) | select(($c[.] - $p[.]) * $sign < 0)] | length) as $wins
               | ($sign * ($cm / $pm - 1)) as $worse
               | {key: $m.name, value: {
                   unit: $m.unit, better: $m.better, bound: $m.bound,
                   parent: $p, change: $c,
                   parent_median: $pm, parent_q1: ($p | cut(1)), parent_q3: ($p | cut(3)),
                   change_median: $cm, change_q1: ($c | cut(1)), change_q3: ($c | cut(3)),
                   ratio: ($cm / $pm), pairs: ($p | length), change_wins: $wins,
                   verdict: (
                     if $wins * 10 >= ($p | length) * 9 and $worse < 0 and ($cm - $pm) * $sign < -$piqr
                       then "gain"
                     elif $worse > $m.bound then "regression"
                     elif ([$piqr / $pm, $ciqr / $cm] | max) > $m.bound
                          and (($c | map(. * $sign) | max) >= ($p | map(. * $sign) | min))
                       then "unresolved"
                     else "no-regression" end)}})
               | from_entries)}})
         | from_entries)}' "$DATA/runs.jsonl" >"$out"
echo "==> wrote $out"
jq -r '.workloads | to_entries[] | .key as $w | .value.metrics | to_entries[]
       | "    \($w) \(.key): parent \(.value.parent_median) change \(.value.change_median) ratio \(.value.ratio * 1000 | round / 1000) wins \(.value.change_wins)/\(.value.pairs): \(.value.verdict)"' "$out"

status=0
[ "$(jq -r .simulator.verdict "$out")" = pass ] \
    || { echo "FAIL: simulate-unprofiled guard" >&2; status=1; }
[ "$(jq '[.workloads[].metrics[] | select(.verdict == "regression")] | length' "$out")" -eq 0 ] \
    || { echo "FAIL: a metric regressed" >&2; status=1; }
[ "$(jq '[.workloads[].operations[] | .failed + .incorrect_runs] | add' "$out")" -eq 0 ] \
    || { echo "FAIL: operations failed or a run was incorrect" >&2; status=1; }
exit "$status"
