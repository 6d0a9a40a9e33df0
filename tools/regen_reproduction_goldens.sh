#!/usr/bin/env sh
# Regenerate the paper-reproduction goldens in tests/golden/reproduction
# from a built tree: each <bench>.txt there is the stdout of
# `<bench> --benchmark_filter=zzz`, the bench's tables without any
# timing run. The golden directory is the list of pinned benches; to pin
# another one, create an empty <bench>.txt and run this script. Run it
# after a deliberate change to a reproduction table, then review the
# diff and name the rows that moved in CHANGES.md; tier-1's
# Reproduction.<bench> tests diff the same output against these files.
#
# Failure policy: a bench that is missing, exits nonzero, or prints
# nothing aborts with a message and a nonzero exit, leaving its golden
# untouched -- a partial or truncated golden must never land silently.
#
# Usage: tools/regen_reproduction_goldens.sh [path/to/build]
# (defaults to build/ relative to the repo root)
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$root/build"}
data="$root/tests/golden/reproduction"

fail() {
  echo "error: $1" >&2
  exit 1
}

for f in "$data"/*.txt; do
  [ -e "$f" ] || fail "no goldens in ${data#"$root"/}"
  bench=$(basename "$f" .txt)
  bin="$build/$bench"
  [ -x "$bin" ] || fail "$bench not found in $build (build the benches)"
  tmp="$f.tmp"
  if ! "$bin" --benchmark_filter=zzz > "$tmp" 2>/dev/null; then
    rm -f "$tmp"
    fail "$bench failed; ${f#"$root"/} left untouched"
  fi
  [ -s "$tmp" ] || { rm -f "$tmp";
    fail "$bench printed nothing; ${f#"$root"/} left untouched"; }
  if cmp -s "$tmp" "$f"; then
    rm -f "$tmp"
    echo "unchanged: ${f#"$root"/}"
  else
    mv "$tmp" "$f"
    echo "rewrote:   ${f#"$root"/}"
  fi
done

echo "done; review with: git diff tests/golden/reproduction"
