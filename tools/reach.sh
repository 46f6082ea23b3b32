#!/bin/sh
# The dead-code gate (U-DEAD), answered by the compiler: every library fn
# must have a caller outside the tests, and every library struct field a
# reader, or be declared a test hook.
#
#   tools/reach.sh
#
# Exports the checkout — HEAD plus its uncommitted changes to tracked files
# (`git stash create`; an untracked file is not exported until it is added)
# — with `git archive` into a temporary directory under $TMPDIR, and works
# there with its own target directory. It marks every non-test fn, and
# every named field of a non-test `struct`, under crates/*/src with
# `#[deprecated(note = "REACH file:line")]` on the item's own line, so no
# line moves. Test code is left unmarked; tools/testcut.awk is the cut
# (tools/lines.sh uses the same one). Trait items, the fns of `impl … for`
# blocks and `fn main` stay unmarked: they are roots, called without being
# named. Tuple structs and enum variants stay unmarked too. Then it runs
# `cargo check` with `--force-warn deprecated` on the non-test targets
# (workspace libs, bins and examples, plus perfbench's own manifest), and
# on the test targets.
#
# Every deprecation warning that names a REACH note is a use of that item.
# A use of a fn is a call, except one inside a `use` / `pub use` item: a
# re-export is not a caller. A use of a field is a read, except
# - an assignment to it: the field name followed by `=`, `+=`, `|=`, …
#   (not `==` or `=>`), and
# - its `f: expr` or shorthand `f` in a struct expression. The same text in
#   a destructuring pattern (its group followed by `=`, `=>` or `|`) is a
#   read.
# The rule sees text only, so a read it cannot see still counts: a read in
# a `#[doc(hidden)]` hook, a self-read update such as `x.m = x.m.max(..)`.
# A derived impl raises no warning, so a field that only `Debug` prints is
# reported: check for a `{:?}` that pins it before deleting it.
#
# A marked item is reported, in mmr-lint's `file:line: U-DEAD: …` form, when
# - no target uses it at all (delete it, with the writes that feed a field),
#   or
# - only test targets use it and it lacks `#[doc(hidden)]` (delete it, or
#   declare it a test hook: `/// For tests: …` and `#[doc(hidden)]`).
# A use from an item that is itself dead still counts, so deleting one dead
# item can expose the next on the following run.
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
# Columns and offsets are bytes, whatever awk this is.
export LC_ALL=C

# Mark. One record a marked item in $dir/marks:
# `file:line<TAB>name<TAB>hidden<TAB>fn|field`.
cat >"$dir/mark.awk" <<'EOF'
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
# Brackets a line opens net of those it closes (`->` and `=>` aside).
function nesting(s,   n) {
    sub(/\/\/.*/, "", s)
    gsub(/[-=]>/, "", s)
    n = gsub(/[([{<]/, "", s)
    return n - gsub(/[)\]}>]/, "", s)
}
function mark(kind, name) {
    printf "%s:%d\t%s\t%d\t%s\n", file, FNR, name, hidden, kind >> marks
    hidden = 0
    $0 = indent($0) "#[deprecated(note = \"REACH " file ":" FNR "\")] " substr($0, length(indent($0)) + 1)
}
test_code { print; next }
# A struct's body: each field at its top level is marked.
body && $0 == bind "}" { body = 0; print; hidden = 0; next }
body {
    if (/^[ \t]*#\[doc\(hidden\)\]/) hidden = 1
    if (/^[ \t]*(#|\/\/)/) { print; next }
    if (!nest && /^[ \t]*(pub(\([^)]*\))?[ \t]+)?[A-Za-z_][A-Za-z0-9_]*[ \t]*:([^:]|$)/) {
        name = $0
        sub(/^[ \t]*(pub(\([^)]*\))?[ \t]+)?/, "", name)
        match(name, /^[A-Za-z0-9_]+/)
        mark("field", sname "::" substr(name, 1, RLENGTH))
    }
    nest += nesting($0)
    hidden = 0
    print; next
}
/^[ \t]*(pub(\([^)]*\))?[ \t]+)?struct[ \t]+[A-Za-z_]/ {
    h = $0
    gsub(/->/, "", h)
    while (h ~ /<[^<>]*>/) gsub(/<[^<>]*>/, "", h)
    sub(/^.*struct[ \t]+/, "", h)
    match(h, /^[A-Za-z0-9_]+/)
    if (substr(h, RLENGTH + 1) ~ /^[ \t]*(where[^{]*)?\{[ \t]*$/) {
        sname = substr(h, 1, RLENGTH); body = 1; bind = indent($0); nest = 0
    }
}
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
        mark("fn", name)
    }
}
!/^[ \t]*(#|\/\/)/ { hidden = 0 }
{ print }
EOF
find crates/*/src -name '*.rs' | sort | while read -r file; do
    awk -v file="$file" -v marks="$dir/marks" \
        -f "$root/tools/testcut.awk" -f "$dir/mark.awk" "$file" >"$dir/marked"
    cp "$dir/marked" "$file"
done

# Check, and keep `item<TAB>file:line:column` for every warning that names a
# mark.
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
uses() {
    sed -n "s|^\\($tree/\\)\\{0,1\\}\\(.*\\):\\([0-9]*\\):\\([0-9]*\\): warning: use of deprecated .*: REACH \\([^ ]*\\)\$|\\5$tab\\2:\\3:\\4|p" "$@"
}
check "$dir/lib.log" --workspace --lib --bins --examples
check "$dir/perfbench.log" --manifest-path crates/bench/examples/perfbench/Cargo.toml
check "$dir/test.log" --workspace --tests
{
    uses "$dir/lib.log"
    # perfbench is its own workspace: its own files are named relative to it.
    uses "$dir/perfbench.log" | sed "/${tab}crates\\//!s|$tab|${tab}crates/bench/examples/perfbench/|"
} >"$dir/lib.uses"
uses "$dir/test.log" >"$dir/test.uses"
[ -s "$dir/lib.uses" ] || { echo "reach.sh: no use was seen; the marks did not take" >&2; exit 2; }

# Report.
awk -F '\t' -v lib="$dir/lib.uses" -v test="$dir/test.uses" '
    function load(f,   n, line, open) {
        loaded[f] = 1
        while ((getline line < f) > 0) {
            n++
            text[f, n] = line
            if (line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) open = 1
            if (open) inuse[f ":" n] = 1
            if (line ~ /;/) open = 0
        }
        last[f] = n
        close(f)
    }
    # The byte of line s at which its character column c starts.
    function byte_at(s, c,   i, n) {
        for (i = 1; i <= length(s); i++)
            if (!index(tail, substr(s, i, 1)) && ++n == c) return i
        return length(s) + 1
    }
    # What follows byte b of line l in file f, leading text that matches
    # `skip` left out across lines.
    function after(f, l, b, skip,   s) {
        s = substr(text[f, l], b)
        for (;;) {
            sub(skip, "", s)
            if (s != "" || l >= last[f]) return s
            s = text[f, ++l]
        }
    }
    # Whether the use of field `name` at f:l:c reads it.
    function reads(f, l, c, name,   b, s, d, ch, i) {
        b = byte_at(text[f, l], c)
        s = substr(text[f, l], b)
        if (index(s, name) == 1 && substr(s, length(name) + 1) !~ /^[A-Za-z0-9_]/) {
            if (after(f, l, b + length(name), "^[ \t]+") ~ /^(:([^:]|$)|,|\})/) {
                # A struct expression or a pattern: what follows the group?
                for (d = 0; l <= last[f]; l++) {
                    s = substr(text[f, l], b)
                    for (i = 1; i <= length(s); i++) {
                        ch = substr(s, i, 1)
                        if (ch ~ /[([{]/) d++
                        else if (ch ~ /[)\]}]/ && d-- == 0)
                            return after(f, l, b + i, "^[] \t)]+") ~ /^(=([^=]|$)|\|([^|]|$))/
                    }
                    b = 1
                }
                return 1
            }
        }
        # An access: the first `.name` on from the use.
        for (; l <= last[f]; l++) {
            s = substr(text[f, l], b)
            while (i = index(s, "." name)) {
                s = substr(s, i + length(name) + 1)
                if (s !~ /^[A-Za-z0-9_]/) {
                    i = length(text[f, l]) - length(s) + 1
                    return after(f, l, i, "^[ \t]+") !~ /^(=([^=>]|$)|(<<|>>|[-+*\/%&|^])=)/
                }
            }
            b = 1
        }
        return 1
    }
    function read(uses, users,   u, site, f, kind) {
        while ((getline u < uses) > 0) {
            split(u, use, "\t")
            split(use[2], site, ":")
            f = site[1]
            if (!(f in loaded)) load(f)
            kind = kinds[use[1]]
            if (kind == "fn" && (f ":" site[2]) in inuse) continue
            if (kind == "field" && !reads(f, site[2], site[3], fields[use[1]])) continue
            users[use[1]] = 1
        }
    }
    BEGIN {
        for (i = 128; i < 192; i++) tail = tail sprintf("%c", i)
        while ((getline m < ARGV[1]) > 0) {
            split(m, mark, "\t")
            kinds[mark[1]] = mark[4]
            fields[mark[1]] = mark[2]
            sub(/.*::/, "", fields[mark[1]])
        }
        close(ARGV[1])
        read(lib, used)
        read(test, tested)
    }
    { marks[$4]++ }
    $1 in used { next }
    $1 in tested && $3 { next }
    {
        hook = "; delete it, or declare it a test hook (`#[doc(hidden)]`)"
        if ($4 == "fn") why = ($1 in tested) ? "is called only from tests" hook : "has no caller; delete it"
        else why = ($1 in tested) ? "is read only by tests" hook : "has no reader; delete it and the writes that feed it"
        printf "%s: U-DEAD: %s`%s` %s\n", $1, ($4 == "field") ? "field " : "", $2, why
        found++
    }
    END {
        printf "reach.sh: %d library fns and %d fields marked, %d finding(s)\n", marks["fn"], marks["field"], found > "/dev/stderr"
        exit found > 0
    }' "$dir/marks"
