#!/bin/sh
# The one line counter: first-party Rust lines, non-test lines by crate, and
# the tools' shell lines.
#
#   tools/lines.sh [rev]
#
# Counts this checkout's working tree, or with <rev> a `git archive` export
# of that revision (so `tools/lines.sh <parent>` and `tools/lines.sh` give a
# before and after from the same cut).
#
# The cut:
# - First-party: every `*.rs` under crates/, src/, tests/ and examples/,
#   except the linter's deliberately bad fixtures (crates/lint/tests/
#   fixtures) and any build directory (`*/target/*`). Vendored stand-ins
#   (vendor/) are not first-party.
# - Non-test lines of crate <c>: the lines of the files under crates/<c>/src
#   that tools/testcut.awk, the cut tools/reach.sh marks by, does not call
#   test code (a file from its `#![cfg(test)]` on, and each `#[cfg(test)]`
#   item, field or statement). The crate's tests/ and examples/ are test
#   code too. perfbench (crates/bench/examples/perfbench, its own package)
#   is reported on its own row, counted whole. The cut is this checkout's
#   even for <rev>, so a before and after share it.
# - `lines` counts every line; `code` leaves out blank lines and lines that
#   are only a `//` comment (doc comments included), so trimming docs or
#   reflowing moves `lines` but not `code`.
# - tools: every tools/*.sh and tools/*.awk on its own row, `code` leaving
#   out blank lines and `#` comments, so a check moved from Rust into a
#   script still counts.
set -eu

root=$(git rev-parse --show-toplevel)
testcut=$(cat "$root/tools/testcut.awk")
tree=$root
if [ $# -ge 1 ]; then
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$(git -C "$root" rev-parse --verify "$1^{commit}")" | tar -x -C "$tree"
fi
cd "$tree"

# Prints "<lines> <code>" for the files on stdin, test code left out when
# $1 is `cut`.
count() {
    xargs -r awk -v cut="$1" "$testcut"'
        cut == "cut" && test_code { next }
        { lines++ }
        !/^[ \t]*$/ && !/^[ \t]*\/\// { code++ }
        END { printf "%d %d\n", lines, code }' |
        awk '{ lines += $1; code += $2 } END { printf "%d %d\n", lines, code }'
}

printf '%-18s %8s %8s\n' "non-test" lines code
total_lines=0
total_code=0
for dir in crates/*/src; do
    name=${dir#crates/}
    name=${name%/src}
    set -- $(find "$dir" -name '*.rs' | sort | count cut)
    printf '%-18s %8d %8d\n' "$name" "$1" "$2"
    total_lines=$((total_lines + $1))
    total_code=$((total_code + $2))
done
printf '%-18s %8d %8d\n' "all crates" "$total_lines" "$total_code"
set -- $(find crates/bench/examples/perfbench -name '*.rs' -not -path '*/target/*' | sort | count whole)
printf '%-18s %8d %8d\n' "bench/perfbench" "$1" "$2"
set -- $(find crates src tests examples -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/lint/tests/fixtures/*' | sort | count whole)
printf '%-18s %8d %8d\n' "first-party total" "$1" "$2"
set -- $(find tools -name '*.sh' -o -name '*.awk' | sort | xargs awk '{ lines++ }
    !/^[ \t]*$/ && !/^[ \t]*#/ { code++ } END { printf "%d %d\n", lines, code }')
printf '%-18s %8d %8d\n' "tools (sh, awk)" "$1" "$2"
