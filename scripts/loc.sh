#!/usr/bin/env bash
# Non-test Rust line counts per crate: every `crates/*/src/**/*.rs` file
# up to (not including) its first `#[cfg(test)]` line. Vendored
# stand-ins under `vendor/` are not counted. Prints a markdown table,
# one row per crate plus a total, so CI can append it to the job
# summary and a PR can quote its before/after numbers.
#
# Usage: scripts/loc.sh [repo-root]   (default: the current directory)

set -euo pipefail

cd "${1:-.}"

echo "| crate | non-test lines |"
echo "|---|---:|"
total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  [ -d "$dir/src" ] || continue
  n="$(find "$dir/src" -name '*.rs' -not -path '*/vendor/*' -print0 \
    | sort -z \
    | xargs -0 -r awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }' \
    | awk '{ s += $1 } END { print s + 0 }')"
  echo "| $crate | $n |"
  total=$((total + n))
done
echo "| **total** | **$total** |"
