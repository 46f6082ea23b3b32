#!/bin/sh
# The dead-code gate (U-DEAD), answered by the compiler: every library fn
# must have a caller outside the tests, or be a declared test hook.
#
#   tools/reach.sh
#
# Exports the checkout — HEAD plus its uncommitted changes to tracked files
# (`git stash create`; an untracked file is not exported until it is added)
# — with `git archive` into a temporary directory under $TMPDIR, and works
# there with its own target directory. It marks every non-test fn under
# crates/*/src with `#[deprecated(note = "REACH file:line")]` on the fn's
# own line, so no line moves. Test code is left unmarked: a file that opens
# with `#![cfg(test)]`, and each `#[cfg(test)]` item or statement, to the
# `}` at its own indentation (or its `;`). Trait items,
# the fns of `impl … for` blocks and `fn main` stay unmarked: they are
# roots, called without being named. Then it runs `cargo check` twice with
# `--force-warn deprecated`: on the non-test targets (workspace libs, bins
# and examples, plus perfbench's own manifest), and on the test targets.
#
# Every deprecation warning that names a REACH note is a call of that fn,
# except one inside a `use` / `pub use` item: a re-export is not a caller.
# A marked fn is reported, in mmr-lint's `file:line: U-DEAD: …` form, when
# - no target calls it at all (delete it), or
# - only test targets call it and it lacks `#[doc(hidden)]` (delete it, or
#   declare it a test hook: `/// For tests: …` and `#[doc(hidden)]`).
# A call from a fn that is itself dead still counts, so deleting one dead
# fn can expose the next on the following run.
#
# Exits 0 when nothing is reported, 1 on a finding, 2 on bad usage or when a
# check fails to build (its log is printed). Takes no arguments.
set -eu

[ $# -eq 0 ] || { echo "usage: tools/reach.sh" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
dir=$(mktemp -d "${TMPDIR:-/tmp}/mmr-reach.XXXXXX")
trap 'rm -rf "$dir"' EXIT
tree=$dir/tree
mkdir "$tree"
rev=$(git -C "$root" stash create)
git -C "$root" archive "${rev:-HEAD}" | tar -x -C "$tree"
cd "$tree"

# Mark. One record a marked fn in $dir/marks: `file:line<TAB>name<TAB>hidden`.
find crates/*/src -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" -v marks="$dir/marks" '
        function indent(s) { match(s, /^[ \t]*/); return substr(s, 1, RLENGTH) }
        # The type an inherent impl header names: `impl<T> Name<T> {` -> Name.
        function impl_type(h) {
            gsub(/->/, "", h)
            while (h ~ /<[^<>]*>/) gsub(/<[^<>]*>/, "", h)
            sub(/^[ \t]*(unsafe[ \t]+)?impl[ \t]*/, "", h)
            match(h, /^[A-Za-z0-9_:]+/)
            h = substr(h, 1, RLENGTH)
            sub(/.*::/, "", h)
            return h
        }
        # Test code stays unmarked: a file that opens with `#![cfg(test)]`,
        # and each `#[cfg(test)]` item or statement to its end.
        /^#!\[cfg\(test\)\]/ { whole = 1 }
        whole { print; next }
        skip == 3 { if (/;/) skip = 0; print; next }
        skip == 2 { if ($0 == sind "}") skip = 0; print; next }
        skip == 1 {
            if (/^[ \t]*#\[/) { print; next }
            if (/^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/ && !/;/) skip = 3
            else if (/[;,][ \t]*$/ || /\{.*\}[ \t]*$/) skip = 0
            else skip = 2
            print; next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; sind = indent($0); print; next }
        # A block closes on a `}` at the indentation of its header.
        depth && $0 == ind[depth] "}" { depth--; print; hidden = 0; next }
        # An `impl` / `trait` header, possibly over several lines.
        header != "" { header = header " " $0 }
        header == "" && /^[ \t]*((pub(\([^)]*\))?|unsafe)[ \t]+)*(impl|trait)([ \t<]|$)/ {
            header = $0; hind = indent($0)
        }
        header != "" && /\{/ {
            if (header !~ /\}[ \t]*$/) {
                depth++
                ind[depth] = hind
                root[depth] = header ~ /^[ \t]*((pub(\([^)]*\))?|unsafe)[ \t]+)*trait[ \t]/ ||
                              header ~ /[ \t]for[ \t]/
                ty[depth] = root[depth] ? "" : impl_type(header)
            }
            header = ""
            print; next
        }
        /^[ \t]*#\[doc\(hidden\)\]/ { hidden = 1 }
        /^[ \t]*((pub(\([^)]*\))?|const|async|unsafe|extern[ \t]+"[^"]*")[ \t]+)*fn[ \t]+[A-Za-z_]/ {
            name = $0
            sub(/^.*fn[ \t]+/, "", name)
            match(name, /^[A-Za-z0-9_]+/)
            name = substr(name, 1, RLENGTH)
            inroot = 0
            for (d = 1; d <= depth; d++) if (root[d]) inroot = 1
            if (!inroot && !(depth == 0 && name == "main")) {
                if (depth && ty[depth] != "") name = ty[depth] "::" name
                printf "%s:%d\t%s\t%d\n", file, FNR, name, hidden >> marks
                hidden = 0
                i = indent($0)
                $0 = i "#[deprecated(note = \"REACH " file ":" FNR "\")] " substr($0, length(i) + 1)
            }
        }
        !/^[ \t]*(#|\/\/)/ { hidden = 0 }
        { print }
    ' "$file" >"$dir/marked"
    cp "$dir/marked" "$file"
done

# Check, and keep `callee<TAB>call-site` for every warning that names a mark.
export CARGO_TARGET_DIR="$dir/target" RUSTFLAGS="--force-warn deprecated"
check() {
    log=$1
    shift
    if ! cargo check --quiet --message-format=short "$@" >"$log" 2>&1; then
        cat "$log" >&2
        echo "reach.sh: \`cargo check $*\` fails on the marked tree" >&2
        exit 2
    fi
}
tab=$(printf '\t')
calls() {
    sed -n "s|^\\($tree/\\)\\{0,1\\}\\(.*\\):\\([0-9]*\\):[0-9]*: warning: use of deprecated .*: REACH \\([^ ]*\\)\$|\\4$tab\\2:\\3|p" "$@"
}
check "$dir/lib.log" --workspace --lib --bins --examples
check "$dir/perfbench.log" --manifest-path crates/bench/examples/perfbench/Cargo.toml
check "$dir/test.log" --workspace --tests
{
    calls "$dir/lib.log"
    # perfbench is its own workspace: its own files are named relative to it.
    calls "$dir/perfbench.log" | sed "/${tab}crates\\//!s|$tab|${tab}crates/bench/examples/perfbench/|"
} >"$dir/lib.calls"
calls "$dir/test.log" >"$dir/test.calls"
[ -s "$dir/lib.calls" ] || { echo "reach.sh: no call was seen; the marks did not take" >&2; exit 2; }

# Report. A call whose site sits in a `use` item is a re-export, not a call.
awk -F '\t' -v lib="$dir/lib.calls" -v test="$dir/test.calls" '
    function load(f,   n, line, open) {
        loaded[f] = 1
        while ((getline line < f) > 0) {
            n++
            if (line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) open = 1
            if (open) inuse[f ":" n] = 1
            if (line ~ /;/) open = 0
        }
        close(f)
    }
    function read(calls, callees,   c, f) {
        while ((getline c < calls) > 0) {
            split(c, call, "\t")
            f = call[2]
            sub(/:[0-9]*$/, "", f)
            if (!(f in loaded)) load(f)
            if (!(call[2] in inuse)) callees[call[1]] = 1
        }
    }
    BEGIN { read(lib, called); read(test, tested) }
    { marks++ }
    $1 in called { next }
    $1 in tested && $3 { next }
    $1 in tested {
        printf "%s: U-DEAD: `%s` is called only from tests; delete it, or declare it a test hook (`#[doc(hidden)]`)\n", $1, $2
        found++
        next
    }
    {
        printf "%s: U-DEAD: `%s` has no caller; delete it\n", $1, $2
        found++
    }
    END {
        printf "reach.sh: %d library fns marked, %d finding(s)\n", marks, found > "/dev/stderr"
        exit found > 0
    }' "$dir/marks"
