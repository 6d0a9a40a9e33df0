#!/usr/bin/env sh
# Regenerate the paper-reproduction goldens in tests/golden/reproduction
# from a built tree: each <table>.txt there is the stdout of
# `apcc_reproduce <table>`. The golden directory is the list of pinned
# tables; to pin a new table, create an empty <table>.txt and run this
# script. Run it after a deliberate change to a reproduction table, then
# review the diff and name the rows that moved in CHANGES.md; tier-1's
# Reproduction.bench_<table> tests diff the same output against these
# files.
#
# Failure policy: a missing apcc_reproduce, or a table that exits
# nonzero or prints nothing, aborts with a message and a nonzero exit,
# leaving its golden untouched -- a partial or truncated golden must
# never land silently.
#
# Usage: tools/regen_reproduction_goldens.sh [path/to/build]
# (defaults to build/ relative to the repo root)
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$root/build"}
data="$root/tests/golden/reproduction"
bin="$build/apcc_reproduce"

fail() {
  echo "error: $1" >&2
  exit 1
}

[ -x "$bin" ] || fail "apcc_reproduce not found in $build (build the tools)"

for f in "$data"/*.txt; do
  [ -e "$f" ] || fail "no goldens in ${data#"$root"/}"
  table=$(basename "$f" .txt)
  tmp="$f.tmp"
  if ! "$bin" "$table" > "$tmp" 2>/dev/null; then
    rm -f "$tmp"
    fail "apcc_reproduce $table failed; ${f#"$root"/} left untouched"
  fi
  [ -s "$tmp" ] || { rm -f "$tmp";
    fail "apcc_reproduce $table printed nothing; ${f#"$root"/} left untouched"; }
  if cmp -s "$tmp" "$f"; then
    rm -f "$tmp"
    echo "unchanged: ${f#"$root"/}"
  else
    mv "$tmp" "$f"
    echo "rewrote:   ${f#"$root"/}"
  fi
done

echo "done; review with: git diff tests/golden/reproduction"
