#!/usr/bin/env sh
# Regenerate the wire-format golden files in tests/serving/data from
# their current contents: each file's record headers are rewritten to
# the wire version `apcc_cli version` reports, then the file is parsed
# and re-serialized through `apcc_cli wire-roundtrip`, which
# canonicalizes it under the current schema (adding newly-introduced
# keys at their defaults, fixing field order). A wire bump is therefore
# one change to JobSpec::kWireVersion and one run of this script; a
# bump that removes a key also needs that key's lines deleted from the
# goldens first, since the strict parser rejects unknown keys. Review
# the diff afterwards; CI's golden gate diffs wire-roundtrip output
# against these files byte-for-byte.
#
# Failure policy: an unreadable version, any roundtrip failure, empty
# output, or non-idempotent canonical form aborts with a message and a
# nonzero exit, leaving the golden untouched -- a partial or truncated
# golden must never land silently.
#
# Usage: tools/regen_wire_goldens.sh [path/to/apcc_cli]
# (defaults to build/apcc_cli relative to the repo root)
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cli=${1:-"$root/build/apcc_cli"}
data="$root/tests/serving/data"

fail() {
  echo "error: $1" >&2
  exit 1
}

[ -x "$cli" ] ||
  fail "apcc_cli not found at $cli (build it, or pass its path)"

# `apcc_cli version` prints "apcc_cli <tool version> (wire v<N>)".
version=$("$cli" version | sed -n 's/.*(wire v\([0-9][0-9]*\)).*/\1/p')
[ -n "$version" ] || fail "could not read the wire version from $cli version"

for f in "$data"/*.wire; do
  headers="$f.headers"
  sed -e "s/^apcc\.job v[0-9][0-9]*\$/apcc.job v$version/" \
      -e "s/^apcc\.result v[0-9][0-9]*\$/apcc.result v$version/" \
      "$f" > "$headers"
  tmp="$f.tmp"
  if ! "$cli" wire-roundtrip "$headers" > "$tmp"; then
    rm -f "$headers" "$tmp"
    fail "wire-roundtrip failed on ${f#"$root"/}; golden left untouched"
  fi
  rm -f "$headers"
  [ -s "$tmp" ] || { rm -f "$tmp";
    fail "wire-roundtrip produced no output for ${f#"$root"/}"; }
  # The canonical form must be a fixed point: roundtripping it again
  # has to reproduce it byte-for-byte, or the codec itself is broken
  # and these goldens would bake the bug into CI.
  tmp2="$f.tmp2"
  if ! "$cli" wire-roundtrip "$tmp" > "$tmp2" ||
      ! cmp -s "$tmp" "$tmp2"; then
    rm -f "$tmp" "$tmp2"
    fail "canonical form of ${f#"$root"/} is not a serialize/parse fixed point"
  fi
  rm -f "$tmp2"
  if cmp -s "$tmp" "$f"; then
    rm -f "$tmp"
    echo "unchanged: ${f#"$root"/}"
  else
    mv "$tmp" "$f"
    echo "rewrote:   ${f#"$root"/}"
  fi
done

echo "done; review with: git diff tests/serving/data"
