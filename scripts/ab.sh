#!/bin/sh
# A/B comparison of the repository benchmark: perfbench built from the
# git revision REV against perfbench built from the working tree, run in
# PAIRS alternating pairs (REV first on odd pairs, the working tree
# first on even ones) on one workload at SECONDS seconds per run.
#
#   sh scripts/ab.sh REV WORKLOAD SECONDS PAIRS [PERFBENCH ARGS...]
#
# Further arguments go to both perfbench runs, e.g. `--seed 1234` to
# check a gain on a seed other than the default 42, or `--trace 1` for
# traced pairs, which carry the per-layer metrics instead of the
# end-to-end ones.
# Run it from the repository root. REV is exported with `git archive`
# into target/ab/<commit> (kept, so a second comparison against the same
# commit rebuilds nothing) and both sides are built offline. Each run
# prints the metrics it carries and the CPU steal that /proc/stat
# counted during it; a summary then gives, per metric of BENCHMARK.json's
# `end_to_end` and `per_layer` lists that every run carries, each side's
# median and quartiles and the pairs the working tree won, in the
# direction BENCHMARK.json declares. The script exits nonzero if a run
# fails or does not end with `"correct": true`.
set -eu

if [ $# -lt 4 ]; then
    echo "usage: sh scripts/ab.sh REV WORKLOAD SECONDS PAIRS [PERFBENCH ARGS...]" >&2
    exit 2
fi
rev=$1
workload=$2
seconds=$3
pairs=$4
shift 4

commit=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "ab: $rev is not a commit" >&2
    exit 2
}
base=target/ab/$commit
if [ ! -d "$base" ]; then
    mkdir -p "$base.part"
    git archive "$commit" | tar -x -C "$base.part"
    mv "$base.part" "$base"
fi
cargo build --offline --release --quiet --manifest-path "$base/perfbench/Cargo.toml"
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
runs=$out/runs
: >"$runs"
tick=$(getconf CLK_TCK 2>/dev/null || echo 100)

# The machine's cumulative CPU steal in clock ticks (0 without /proc).
steal() {
    awk '$1 == "cpu" { print $9 + 0; found = 1; exit } END { if (!found) print 0 }' \
        /proc/stat 2>/dev/null || echo 0
}

# Reads BENCHMARK.json's end-to-end and per-layer metrics, then the run
# log, one line per run: `pair side steal-ticks json`. With `last` set
# it prints the log's last run; otherwise the summary of every metric
# that all runs carry, where a pair counts as a win only if the working
# tree did strictly better.
report='
function value(json, name,    s, re) {
    re = name
    gsub(/[.]/, "[.]", re)
    if (!match(json, "\"" re "\": *[{]\"value\": *[-+0-9.eE]+"))
        return ""
    s = substr(json, RSTART, RLENGTH)
    sub(/.*: */, "", s)
    return s + 0
}
function num(x) {
    if (x == int(x))
        return sprintf("%d", x)
    return x < 0 || x >= 100000 ? sprintf("%.1f", x) : sprintf("%.5g", x)
}
function show(i,    k, line) {
    line = sprintf("pair %2d %-4s steal %6.2f s", pair[i], side[i], ticks[i] / tick)
    for (k = 1; k <= m; k++)
        if (val[i, k] != "")
            line = line sprintf("  %s %s", names[k], num(val[i, k]))
    print line
}
function spread(a, n) {
    return sprintf("%s (%s-%s)", num(quantile(a, n, 0.5)), num(quantile(a, n, 0.25)), num(quantile(a, n, 0.75)))
}
# Sorts a[1..n] ascending (insertion sort: a few dozen values at most).
function sort(a, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--)
            a[j + 1] = a[j]
        a[j + 1] = x
    }
}
# The p-quantile of sorted a[1..n], interpolated linearly.
function quantile(a, n, p,    h, lo) {
    h = 1 + (n - 1) * p
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FNR == NR {
    if ($0 ~ /"(end_to_end|per_layer)"/)
        inside = 1
    else if (inside && $0 ~ /^[ \t]*\]/)
        inside = 0
    if (inside && match($0, /"name": *"[^"]*"/)) {
        s = substr($0, RSTART, RLENGTH)
        sub(/^"name": *"/, "", s)
        sub(/"$/, "", s)
        m++
        names[m] = s
        higher[m] = $0 ~ /"better": *"higher"/
    }
    next
}
{
    n++
    pair[n] = $1
    side[n] = $2
    ticks[n] = $3
    for (k = 1; k <= m; k++)
        if ((val[n, k] = value($0, names[k])) != "")
            carried[k]++
    of[$2, $1] = n
    if ($1 > pairs)
        pairs = $1
}
END {
    if (last) {
        show(n)
        exit
    }
    printf "\nrev = %s, tree = the working tree; %d pairs\n", rev, pairs
    printf "%-28s %-36s %-36s %8s %6s\n", "metric", "rev median (q1-q3)", "tree median (q1-q3)", "change", "wins"
    for (k = 1; k <= m; k++) {
        if (carried[k] < n)
            continue
        wins = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = val[of["rev", p], k]
            b[p] = val[of["tree", p], k]
            if (higher[k] ? b[p] > a[p] : b[p] < a[p])
                wins++
        }
        sort(a, pairs)
        sort(b, pairs)
        ma = quantile(a, pairs, 0.5)
        mb = quantile(b, pairs, 0.5)
        printf "%-28s %-36s %-36s %+7.1f%% %3d/%d\n", names[k], spread(a, pairs), \
            spread(b, pairs), ma == 0 ? 0 : 100 * (mb - ma) / ma, wins, pairs
    }
}
'

# run SIDE DIR PAIR [PERFBENCH ARGS...]: one perfbench run from its own
# checkout.
run() {
    side=$1
    dir=$2
    n=$3
    shift 3
    log=$out/$side.$n
    before=$(steal)
    if ! (cd "$dir" && ./perfbench/target/release/perfbench \
        --workload "$workload" --seconds "$seconds" --trace 0 "$@") >"$log" 2>"$log.err"; then
        tail -n 20 "$log.err" >&2
        echo "ab: the $side run of pair $n failed" >&2
        exit 1
    fi
    after=$(steal)
    json=$(tail -n 1 "$log")
    case $json in
    *'"correct": true'*) ;;
    *)
        echo "ab: the $side run of pair $n did not end with \"correct\": true" >&2
        exit 1
        ;;
    esac
    printf '%s %s %s %s\n' "$n" "$side" "$((after - before))" "$json" >>"$runs"
    awk -v last=1 -v tick="$tick" "$report" BENCHMARK.json "$runs"
}

echo "ab: $workload, $seconds s per run, $pairs pairs: rev $rev ($commit) against the working tree" "$@"
pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run rev "$base" "$pair" "$@"
        run tree . "$pair" "$@"
    else
        run tree . "$pair" "$@"
        run rev "$base" "$pair" "$@"
    fi
    pair=$((pair + 1))
done
awk -v tick="$tick" -v rev="$rev" "$report" BENCHMARK.json "$runs"
