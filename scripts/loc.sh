#!/usr/bin/env bash
# Line counts of the non-test part of Rust source files.
#
#   scripts/loc.sh <file>...
#
# For each file, counts the lines before its first line starting with
# `#[cfg(test)]` (the whole file when there is none), and prints two
# numbers: physical lines, and lines that are neither blank nor `//`
# comments (doc comments included). A last line sums both over the files.
set -euo pipefail
[[ $# -ge 1 ]] || { sed -n 4p "$0" >&2; exit 2; }
printf '%-48s %9s %9s\n' file physical code
awk '
    FNR == 1 { done = 0 }
    /^#\[cfg\(test\)\]/ { done = 1 }
    done { next }
    { phys[FILENAME]++ }
    !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { code[FILENAME]++ }
    END {
        for (i = 1; i < ARGC; i++) {
            f = ARGV[i]
            printf "%-48s %9d %9d\n", f, phys[f], code[f]
            tp += phys[f]; tc += code[f]
        }
        printf "%-48s %9d %9d\n", "total", tp, tc
    }
' "$@"
