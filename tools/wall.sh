#!/bin/sh
# Wall-clock A/B of whole `mmr-bench` command sequences between a parent
# revision and this checkout.
#
#   tools/wall.sh <parent-rev> <pairs> '<parent cmds>' ['<change cmds>']
#
# Exports <parent-rev> with `git archive` (as tools/ab.sh does: nothing is
# registered in .git, and uncommitted changes in this checkout are what
# "change" measures), builds `mmr-bench` on both sides, then times the
# command strings in strictly alternating pairs — odd pairs parent first,
# even pairs change first. Each string is run by `sh -c` with `$MB` bound
# to its side's binary, in an empty per-side scratch directory (so `--dir .`
# or `--table x.txt` write nothing into the checkout), stdout discarded. The
# change runs the parent's commands unless given its own. Example, the
# four paper artefacts before and after they became one entry:
#
#   tools/wall.sh <rev> 10 '$MB fig3; $MB fig4; $MB fig5; $MB claims' '$MB paper'
#
# Prints every run, each side's median and quartiles, the pair wins (ties
# count for neither), the change/parent ratio of the medians, `nproc` and the
# `--jobs` the commands ask for. Exits 1 when any run exits non-zero; 2 on
# bad usage. Scratch space is $AB_DIR (default /tmp/mmr-ab), shared with
# tools/ab.sh.
set -eu

[ $# -ge 3 ] && [ $# -le 4 ] || {
    echo "usage: tools/wall.sh <parent-rev> <pairs> '<parent cmds>' ['<change cmds>']" >&2
    exit 2
}
rev=$1
pairs=$2
parent_cmds=$3
change_cmds=${4:-$3}
root=$(git rev-parse --show-toplevel)
dir=${AB_DIR:-/tmp/mmr-ab}
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")

rm -rf "$dir/parent" "$dir/run-parent" "$dir/run-change"
mkdir -p "$dir/parent" "$dir/run-parent" "$dir/run-change"
git -C "$root" archive "$sha" | tar -x -C "$dir/parent"
# As in tools/ab.sh: archived sources carry the commit's time, so a build
# of another revision would look fresh; reuse the build of this one only.
[ "$(cat "$dir/parent-target/rev" 2>/dev/null)" = "$sha" ] || rm -rf "$dir/parent-target"
cargo build --release --quiet -p mmr-bench --manifest-path "$dir/parent/Cargo.toml" \
    --target-dir "$dir/parent-target"
echo "$sha" >"$dir/parent-target/rev"
cargo build --release --quiet -p mmr-bench --manifest-path "$root/Cargo.toml" \
    --target-dir "$dir/change-target"

runs=$dir/wall.$$
: >"$runs"
trap 'rm -f "$runs"' EXIT

jobs_of() {
    printf '%s\n' "$1" | grep -o -- '--jobs [0-9]*' | sort -u | tr '\n' ' ' | sed 's/ $//'
}
echo "parent $sha  vs  change (this checkout)  $pairs pairs  cores $(nproc 2>/dev/null || echo '?')"
echo "parent: $parent_cmds   [jobs: $(jobs_of "$parent_cmds" | grep . || echo "default = all cores")]"
echo "change: $change_cmds   [jobs: $(jobs_of "$change_cmds" | grep . || echo "default = all cores")]"
echo "side pair seconds"

status=0
# One timed run of a side's commands; a failing command fails the whole A/B.
one() {
    if [ "$1" = parent ]; then cmds=$parent_cmds; else cmds=$change_cmds; fi
    start=$(date +%s.%N)
    (cd "$dir/run-$1" && MB="$dir/$1-target/release/mmr-bench" sh -c "$cmds" >/dev/null) ||
        { echo "$1 pair $2: a command failed" >&2; status=1; }
    end=$(date +%s.%N)
    echo "$1 $2 $(echo "$start $end" | awk '{ printf "%.3f", $2 - $1 }')" | tee -a "$runs"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        one parent "$i"
        one change "$i"
    else
        one change "$i"
        one parent "$i"
    fi
    i=$((i + 1))
done

awk '
    function quantile(side, q,    n, i, j, t, v, pos, lo) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i) in val) v[++n] = val[side, i]
        for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
        pos = 1 + (n - 1) * q; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    { val[$1, $2] = $3 + 0; if ($2 > pairs) pairs = $2 }
    END {
        for (i = 1; i <= pairs; i++)
            if (val["change", i] < val["parent", i]) wins++; else if (val["change", i] > val["parent", i]) losses++
        printf "\n%-7s %10s %10s %10s\n", "side", "q1", "median", "q3"
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "parent" : "change"
            printf "%-7s %10.3f %10.3f %10.3f\n", side, quantile(side, 0.25), quantile(side, 0.5), quantile(side, 0.75)
        }
        pm = quantile("parent", 0.5); cm = quantile("change", 0.5)
        iqr = quantile("parent", 0.75) - quantile("parent", 0.25)
        printf "change faster in %d, slower in %d of %d pairs; change/parent %.3f; medians apart by %s the parent IQR\n", \
            wins, losses, pairs, cm / pm, (pm - cm > iqr ? "more than" : (cm - pm > iqr ? "more than (slower)" : "less than"))
    }' "$runs"
exit $status
