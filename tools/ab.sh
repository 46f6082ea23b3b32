#!/bin/sh
# A/B one perfbench workload — or, with `all`, every workload BENCHMARK.json
# names, in turn on the same two builds — between a parent revision and this
# checkout.
#
#   tools/ab.sh <parent-rev> <workload|all> [pairs=10] [seconds=10] [first-seed=1]
#
# Exports <parent-rev> with `git archive` (nothing is registered in .git, and
# uncommitted changes in this checkout are what "change" measures), builds
# both standalone perfbench packages, then makes strictly alternating single
# runs — odd pairs parent first, even pairs change first — with `--trace 0`
# and seeds first-seed..first-seed+pairs-1 (1..pairs by default; a later
# first seed gives a held-out set). Prints the seed range and the workload's
# auditor state (on / off, read off the first run) in its header, every run,
# each side's median and quartiles for the four end-to-end metrics, pair wins
# (ties count for neither) and whether the medians differ by more than the
# parent's interquartile range. `all` ends with one table, a row per workload
# and metric: both medians, pair wins and a verdict against BENCHMARK.json's
# bound for the metric — `better` (at least nine pairs in ten won and the
# medians apart by more than the parent's IQR), `WORSE` (the change's median
# is worse by more than the bound), `unresolved` (the parent's own quartiles
# are further apart than the bound, and not every run of the change beats
# every run of the parent), else `unchanged`.
#
# Exits 1 when the two sides disagree on a seed's `sim_digest` or any run
# reports a failed operation; 2 on bad usage. Scratch space is $AB_DIR
# (default /tmp/mmr-ab); the builds there are reused by the next call.
set -eu

[ $# -ge 2 ] && [ $# -le 5 ] || {
    echo "usage: tools/ab.sh <parent-rev> <workload|all> [pairs=10] [seconds=10] [first-seed=1]" >&2
    exit 2
}
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}
first=${5:-1}
last=$((first + pairs - 1))
root=$(git rev-parse --show-toplevel)
dir=${AB_DIR:-/tmp/mmr-ab}
pkg=crates/bench/examples/perfbench/Cargo.toml
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$root" archive "$sha" | tar -x -C "$dir/parent"
# `git archive` stamps every file with the commit's time, so a build of a
# later parent looks newer than these sources and cargo would keep it: the
# parent build is reused only for the revision it was built from.
[ "$(cat "$dir/parent-target/rev" 2>/dev/null)" = "$sha" ] || rm -rf "$dir/parent-target"
cargo build --release --quiet --manifest-path "$dir/parent/$pkg" --target-dir "$dir/parent-target"
echo "$sha" >"$dir/parent-target/rev"
cargo build --release --quiet --manifest-path "$root/$pkg" --target-dir "$dir/change-target"

runs=$dir/runs.$$
table=$dir/table.$$
: >"$table"
trap 'rm -f "$runs" "$table"' EXIT

# What BENCHMARK.json declares: the workloads `all` stands for, and how far
# each end-to-end metric may worsen (in the order the columns are printed).
manifest=$root/BENCHMARK.json
bounds=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"bound"/ { gsub(/[^0-9.]/, ""); printf "%s ", $0 }' "$manifest")
mode=$workload
if [ "$mode" = all ]; then
    workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/.*: *"|".*/, ""); printf "%s ", $0 }' "$manifest")
else
    workloads=$workload
fi

# The header waits for the first run: whether the workload arms the invariant
# auditor is in every run's JSON, and no rate is quoted without it.
header() {
    case $(printf '%s\n' "$1" | grep -o '"auditor":[a-z]*' | head -n 1) in
    *true) auditor=on ;;
    *false) auditor=off ;;
    *) auditor='?' ;;
    esac
    echo "parent $sha  vs  change (this checkout)  workload $workload  auditor $auditor  $pairs pairs x $seconds s  seeds $first..$last  cores $(nproc 2>/dev/null || echo '?')  jobs 1"
    echo "side seed setup_s net_cycles_per_s flits_per_s peak_rss_mb sim_digest failed"
}

# One run: the last two stdout lines are the report object (sim_digest) and
# the result object (failed, metrics); a crashed run counts as one failure.
one() {
    out=$("$dir/$1-target/release/perfbench" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 | tail -n 2) || out=
    [ -n "${headed:-}" ] || header "$out"
    headed=1
    printf '%s\n' "$out" | awk -v side="$1" -v seed="$2" '
        function num(key,    s) {
            if (!match($0, "\"" key "\":\\{\"value\":[-+0-9.eE]+")) return "nan"
            s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); return s
        }
        match($0, /"sim_digest":"[^"]*"/) { digest = substr($0, RSTART + 14, RLENGTH - 15) }
        match($0, /"failed":[0-9]+/) {
            failed = substr($0, RSTART + 9, RLENGTH - 9)
            setup = num("setup_s"); cycles = num("net_cycles_per_s")
            flits = num("flits_per_s"); rss = num("peak_rss_mb")
        }
        END {
            if (failed == "") { failed = 1; setup = cycles = flits = rss = "nan"; digest = "crashed" }
            print side, seed, setup, cycles, flits, rss, digest, failed
        }' | tee -a "$runs"
}

status=0
for workload in $workloads; do
    : >"$runs"
    headed=
    i=$first
    while [ "$i" -le "$last" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            one parent "$i"
            one change "$i"
        else
            one change "$i"
            one parent "$i"
        fi
        i=$((i + 1))
    done

    awk -v workload="$workload" -v auditor="$auditor" -v bounds="$bounds" -v table="$table" '
        function quantile(side, m, q,    n, i, j, t, v, pos, lo) {
            n = 0
            for (i = first; i <= seeds; i++) if ((side, i, m) in val) v[++n] = val[side, i, m]
            for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
            if (n == 0) return "nan"
            pos = 1 + (n - 1) * q; lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        {
            if ($2 > seeds) seeds = $2
            if (first == "" || $2 < first) first = $2
            for (m = 1; m <= 4; m++) if ($(m + 2) != "nan") val[$1, $2, m] = $(m + 2) + 0
            digest[$1, $2] = $7
            failed += $8
        }
        END {
            split("setup_s net_cycles_per_s flits_per_s peak_rss_mb", name, " ")
            split("-1 1 1 -1", better, " ")
            split(bounds, bound, " ")
            printf "\n%-18s %-7s %14s %14s %14s   %s\n", "metric", "side", "q1", "median", "q3", "pair wins"
            for (m = 1; m <= 4; m++) {
                wins = losses = both = 0
                # Direction-adjusted extremes: does every run of the change
                # beat every run of the parent?
                worst_change = best_parent = ""
                for (i = first; i <= seeds; i++) {
                    if (!((("parent", i, m) in val) && (("change", i, m) in val))) continue
                    both++
                    p = val["parent", i, m] * better[m]; c = val["change", i, m] * better[m]
                    if (c > p) wins++; else if (c < p) losses++
                    if (worst_change == "" || c < worst_change) worst_change = c
                    if (best_parent == "" || p > best_parent) best_parent = p
                }
                pm = quantile("parent", m, 0.5); cm = quantile("change", m, 0.5)
                iqr = quantile("parent", m, 0.75) - quantile("parent", m, 0.25)
                gap = (cm - pm) * better[m]
                printf "%-18s %-7s %14.6g %14.6g %14.6g\n", name[m], "parent", quantile("parent", m, 0.25), pm, quantile("parent", m, 0.75)
                printf "%-18s %-7s %14.6g %14.6g %14.6g   change wins %d, loses %d of %d; change/parent %.3f; medians apart by %s the parent IQR\n", \
                    name[m], "change", quantile("change", m, 0.25), cm, quantile("change", m, 0.75), \
                    wins, losses, seeds - first + 1, (pm != 0 ? cm / pm : 0), (gap > iqr ? "more than" : (gap < -iqr ? "more than (worse)" : "less than"))
                if (both > 0 && wins * 10 >= both * 9 && gap > iqr) verdict = "better"
                else if (pm != 0 && -gap > bound[m] * pm) verdict = "WORSE"
                else if (pm != 0 && iqr > bound[m] * pm && !(worst_change > best_parent)) verdict = "unresolved"
                else verdict = "unchanged"
                printf "%-17s %-4s %-17s %12.6g %12.6g %6.3f  %2d-%-2d of %-2d  %s\n", \
                    workload, auditor, name[m], pm, cm, (pm != 0 ? cm / pm : 0), wins, losses, both, verdict >>table
            }
            for (i = first; i <= seeds; i++)
                if (digest["parent", i] != digest["change", i]) {
                    printf "sim_digest MISMATCH at seed %d: parent %s, change %s\n", i, digest["parent", i], digest["change", i]
                    bad = 1
                }
            if (!bad) print "sim_digest: identical on every seed"
            printf "failed operations: %d\n", failed
            exit (bad || failed > 0)
        }' "$runs" || status=1
    echo
done

if [ "$mode" = all ]; then
    printf '%-17s %-4s %-17s %12s %12s %6s  %-11s  %s\n' \
        workload aud metric parent change ratio 'won-lost' verdict
    cat "$table"
fi
exit $status
