#!/usr/bin/env bash
# Non-test line counts per crate, as ROADMAP.md's Size line quotes them.
#
# Each `.rs` file under `crates/*/src` and `src` counts up to (not
# including) its first `#[cfg(test)]` line. The in-tree shims
# (`crates/shims`) and the test-only `dtn/src/policy_reference.rs` are
# excluded. Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -path 'crates/dtn/src/policy_reference.rs' -exec awk '
        FNR == 1 { done = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    case "$dir" in crates/shims/*) continue ;; esac
    name=${dir%/src}
    name=${name#crates/}
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %6d\n' "$name" "$n"
done
printf '%-10s %6d\n' total "$total"
