#!/usr/bin/env bash
# Interleaved A/B pairs of `hoodbench` between two revisions.
#
#   tools/ab_pairs.sh PARENT CHANGE PAIRS WORKLOAD...
#
# Exports PARENT and CHANGE with `git archive` into two directories whose
# paths have equal length, builds `hoodbench` in each, and runs PAIRS
# pairs of every WORKLOAD with seeds AB_SEED, AB_SEED + 1, ... (AB_SEED
# defaults to 101; set another to recheck a claim on unseen seeds),
# alternating which side runs first. Then it prints each binary's
# `fib_seq` address mod 64 and, per workload and end-to-end metric, both
# medians, the parent's quartile spread (q3 - q1), the change in %, the
# pairs in which the change was better (ties count for neither side), and
# a verdict by ROADMAP.md's rules, with each metric's `bound` read from
# the parent's BENCHMARK.json:
#
#   WORSE       the change's median is worse than the parent's by more
#               than bound x the parent's median;
#   unresolved  the parent's q3 - q1 exceeds bound x its median, so the
#               runs spread too widely to tell;
#   gain        the change won at least 9 in 10 pairs and its median is
#               better by more than the parent's q3 - q1;
#   ok          none of these.
#
# The first verdict that holds, in this order, is printed.
#
# Code layout, and with it the speed of `fib_seq` (the sequential
# baseline of `fj_fine` and `multiprog`), moves with the checkout path's
# length and also with the directory's name. Equal-length paths remove
# the first cause only, so the script prints a "layout differs" line
# whenever the two `fib_seq` values mod 64 differ: a move of `fj_fine` or
# `multiprog` in such a run may be layout, not the change.
#
# A claim needs the verdict `gain` (ROADMAP.md, "Rules for every item").
# Run nothing else meanwhile: a compile beside it moves the open-loop
# workloads.
#
# Work files go to a fresh `mktemp -d` directory (set TMPDIR to place
# it), which is kept and named at the end; nothing is written into the
# repository. AB_SECONDS overrides the 12 s measured per run (for a
# quick look only; a claim uses 12).
set -euo pipefail

if [ "$#" -lt 4 ]; then
    echo "usage: $0 PARENT CHANGE PAIRS WORKLOAD..." >&2
    exit 2
fi
parent=$1 change=$2 pairs=$3
shift 3
seconds=${AB_SECONDS:-12}
first=${AB_SEED:-101}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)

for side in p c; do
    rev=$parent
    [ "$side" = c ] && rev=$change
    mkdir "$work/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$side"
    echo "building $rev in $work/$side" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
done

i=0
for seed in $(seq "$first" $((first + pairs - 1))); do
    if [ $((i % 2)) -eq 0 ]; then order="p c"; else order="c p"; fi
    i=$((i + 1))
    for workload in "$@"; do
        for side in $order; do
            (cd "$work/$side" && ./benchmark/target/release/hoodbench --workload "$workload" \
                --seed "$seed" --seconds "$seconds" --trace 0) \
                > "$work/$side.$workload.$seed.json" 2> "$work/$side.$workload.$seed.err"
        done
        echo "pair $seed $workload done" >&2
    done
done

mods=""
for side in p c; do
    addr=$(nm "$work/$side/benchmark/target/release/hoodbench" | awk '/fib_seq/ && !seen { print $1; seen = 1 }')
    mod=$((16#$addr % 64))
    echo "$side fib_seq 0x$addr mod 64 = $mod"
    mods="$mods $mod"
done
read -r mod_p mod_c <<< "$mods"
if [ "$mod_p" != "$mod_c" ]; then
    echo "layout differs: fib_seq is at $mod_p mod 64 in the parent and $mod_c in the change;" \
        "fj_fine and multiprog may move with the layout, not the change"
fi

python3 - "$work" "$pairs" "$first" "$@" <<'EOF'
import json, statistics, sys

work, pairs, first, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
seeds = range(first, first + pairs)
bench = json.load(open(f"{work}/p/BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

def load(side, workload, seed):
    lines = open(f"{work}/{side}.{workload}.{seed}.json").read().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {side} {workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return detail, result

def verdict(metric, lower, mp, mc, spread, won):
    """The first of WORSE, unresolved, gain that holds, else ok."""
    if metric not in bounds:
        return "-"
    bound = bounds[metric]
    gap = (mp - mc) if lower else (mc - mp)
    if gap < -bound * abs(mp):
        return "WORSE"
    if spread > bound * abs(mp):
        return "unresolved"
    if 10 * won >= 9 * pairs and gap > spread:
        return "gain"
    return "ok"

print(f"{'workload':14} {'metric':15} {'parent':>10} {'p q3-q1':>9} {'change':>10} {'delta':>8}  better  verdict")
for workload in workloads:
    runs = {s: [load(s, workload, seed) for seed in seeds] for s in "pc"}
    for metric, info in runs["p"][0][1]["metrics"].items():
        lower = runs["p"][0][0]["metrics"][metric]["better"] == "lower"
        v = {s: [r["metrics"][metric]["value"] for _, r in runs[s]] for s in "pc"}
        mp, mc = statistics.median(v["p"]), statistics.median(v["c"])
        q = statistics.quantiles(v["p"], n=4) if pairs > 1 else [mp, mp, mp]
        won = sum((c < p) if lower else (c > p) for p, c in zip(v["p"], v["c"]))
        delta = 100 * (mc - mp) / mp if mp else float("nan")
        spread = q[2] - q[0]
        print(f"{workload:14} {metric:15} {mp:10.4g} {spread:9.3g} {mc:10.4g} {delta:+7.1f}%  "
              f"{f'{won}/{pairs}':>6}  {verdict(metric, lower, mp, mc, spread, won)}")
EOF
echo "runs kept in $work"
