# The one test cut, shared by tools/reach.sh and tools/lines.sh. Put it
# before a program (`awk -f tools/testcut.awk -f program`): for every line
# it sets `test_code` to 1 when the line is test code and to 0 otherwise,
# and the program's rules read it. It holds no line back and prints none.
#
# Test code is
# - a file's lines from a column-0 `#![cfg(test)]` on (a test module in a
#   file of its own), and
# - each `#[cfg(test)]` item, field or statement: the attribute, the
#   attributes after it, and the item to the `}` at the attribute's own
#   indentation, or to its `;` or `,` when it ends on the line it starts
#   on (a `use` list runs to its `;`).
# Everything else is not, so code after a mid-file test item counts again.
function cut_indent(s) { match(s, /^[ \t]*/); return substr(s, 1, RLENGTH) }
{
    if (FNR == 1) { cut_whole = 0; cut_skip = 0 }
    if ($0 ~ /^#!\[cfg\(test\)\]/) cut_whole = 1
    test_code = 1
    if (cut_whole) {
    } else if (cut_skip == 3) {
        if ($0 ~ /;/) cut_skip = 0
    } else if (cut_skip == 2) {
        if ($0 == cut_sind "}") cut_skip = 0
    } else if (cut_skip == 1) {
        if ($0 ~ /^[ \t]*#\[/) {
        } else if ($0 ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/ && $0 !~ /;/) cut_skip = 3
        else if ($0 ~ /[;,][ \t]*$/ || $0 ~ /\{.*\}[ \t]*$/) cut_skip = 0
        else cut_skip = 2
    } else if ($0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
        cut_skip = 1
        cut_sind = cut_indent($0)
    } else test_code = 0
}
