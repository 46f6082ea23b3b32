#!/bin/sh
# The mutation ledger: every row of tools/mutants.tsv is a one-line mutant
# that a named test must kill.
#
#   tools/mutants.sh [id...]
#
# Exports the checkout — HEAD plus its uncommitted changes to tracked files
# (`git stash create`; an untracked file is not exported until it is added)
# — with `git archive` into $MUTANTS_DIR (default /tmp/mmr-mutants). Every
# test the ledger names must pass on the unmutated export first. Then, for
# each row (or only the rows named), it replaces the row's line, runs the
# row's `cargo test` arguments against the one target directory there, and
# restores the file. One line a row:
#   killed         the test failed;
#   survived       it passed: a gap no test covers;
#   did-not-apply  the line is absent or not unique — a refactor moved it,
#                  so the row must be carried along;
#   did-not-build  the mutant does not compile, so it shows nothing.
# Exits 1 unless every row reads `killed`, 2 on bad usage. Rows are
# tab-separated (id, file, line, replacement, test arguments), no field
# empty; see the ledger's header.
set -eu

case "${1:-}" in -*) echo "usage: tools/mutants.sh [id...]" >&2; exit 2 ;; esac
root=$(git rev-parse --show-toplevel)
dir=${MUTANTS_DIR:-/tmp/mmr-mutants}
ledger=$root/tools/mutants.tsv
tab=$(printf '\t')

rev=$(git -C "$root" stash create)
rev=${rev:-HEAD}
rm -rf "$dir/tree"
mkdir -p "$dir/tree"
git -C "$root" archive "$rev" | tar -x -C "$dir/tree"
# `git archive` stamps every file with the commit's time, older than a
# previous run's build: touch them so cargo rebuilds what it must.
find "$dir/tree" -type f -exec touch {} +
export CARGO_TARGET_DIR="$dir/target"
cd "$dir/tree"

rows=$dir/rows
grep -v '^#' "$ledger" | grep -v '^[[:space:]]*$' >"$rows"
if [ $# -gt 0 ]; then
    for id in "$@"; do
        grep -q "^$id$tab" "$rows" || { echo "mutants.sh: no row $id" >&2; exit 2; }
    done
    pattern=$(printf '%s\n' "$@" | sed "s/\$/$tab/; s/^/^/")
    printf '%s\n' "$pattern" | grep -f - "$rows" >"$rows.picked" || true
    mv "$rows.picked" "$rows"
fi

log=$dir/log
cut -f5 "$rows" | sort -u | while read -r test; do
    # shellcheck disable=SC2086 # the arguments are words by design
    if ! cargo test --quiet $test </dev/null >"$log" 2>&1; then
        cat "$log" >&2
        echo "mutants.sh: \`cargo test $test\` fails on the unmutated tree" >&2
        exit 1
    fi
done

killed=0
others=0
while IFS=$tab read -r id file line repl test; do
    count=$dir/count
    LINE=$line REPL=$repl awk -v count="$count" '
        function trim(s) { sub(/^[ \t]+/, "", s); sub(/[ \t]+$/, "", s); return s }
        BEGIN { want = trim(ENVIRON["LINE"]); repl = ENVIRON["REPL"] }
        trim($0) == want { n++; match($0, /^[ \t]*/); print substr($0, 1, RLENGTH) repl; next }
        { print }
        END { print n + 0 > count }' "$file" >"$dir/mutant"
    if [ "$(cat "$count")" != 1 ]; then
        result=did-not-apply
    else
        cp "$file" "$dir/original"
        cp "$dir/mutant" "$file"
        # shellcheck disable=SC2086
        if ! cargo test --quiet --no-run $test </dev/null >"$log" 2>&1; then
            result=did-not-build
        elif cargo test --quiet --no-fail-fast $test </dev/null >"$log" 2>&1; then
            result=survived
        else
            result=killed
        fi
        # A fresh copy, newer than the mutant's build, so cargo rebuilds.
        cp "$dir/original" "$file"
    fi
    printf '%-36s %s\n' "$id" "$result"
    if [ "$result" = killed ]; then killed=$((killed + 1)); else others=$((others + 1)); fi
done <"$rows"
echo "$killed killed, $others not"
[ "$others" -eq 0 ]
