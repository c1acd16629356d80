#!/usr/bin/env bash
# Knob census: the public field count of the workspace's option structs.
#
#   scripts/knobs.sh [struct]...
#
# For each named struct (by default the option structs listed below),
# finds its `pub struct <name> {` in crates/*/src and counts the
# `pub <field>:` lines up to its closing `}`, then prints a total. A name
# that matches no struct, or more than one, is an error, so a renamed
# struct cannot drop out of the count unseen. `ci.sh` fails when the
# total grows past the number it names.
set -euo pipefail
cd "$(dirname "$0")/.."
structs=("$@")
if [[ ${#structs[@]} -eq 0 ]]; then
    structs=(PlatformSpec DataflowPlatformConfig FileBackendOptions LogConfig EventConfig
        ServerOptions ParserConfig PersistentTopicOptions DurableOptions)
fi
total=0
for s in "${structs[@]}"; do
    mapfile -t files < <(grep -rlE "^pub struct $s \{" crates/*/src)
    [[ ${#files[@]} -eq 1 ]] || { echo "$s: defined in ${#files[@]} files" >&2; exit 2; }
    n=$(awk -v head="pub struct $s {" '
        $0 == head { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }
    ' "${files[0]}")
    printf '%-24s %3d  %s\n' "$s" "$n" "${files[0]}"
    total=$((total + n))
done
printf '%-24s %3d\n' total "$total"
