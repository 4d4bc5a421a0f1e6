#!/usr/bin/env bash
# Documentation gate (the CI docs job; also runnable locally).
#
#   scripts/check_docs.sh
#
# 1. scripts/check_public_docs.py -- fails on any undocumented public symbol
#    in src/solver, src/resistance and src/apps (works offline, no doxygen
#    needed). It must also fail on its fixture
#    scripts/testdata/docs_gate/enum_then_undocumented.hpp, naming the
#    undocumented declarations that follow a documented enum.
# 2. scripts/check_links.sh -- fails on any broken relative link in the
#    top-level markdown docs.
# 3. If doxygen is installed, runs it over the Doxyfile and fails on
#    undocumented-symbol warnings in its log (other doxygen chatter is
#    surfaced but non-fatal) -- a second, independent undocumented-symbol
#    check. Skipped (with a notice) when doxygen is absent so offline
#    checkouts still get gates 1-2.
set -euo pipefail

cd "$(dirname "$0")/.."

python3 scripts/check_public_docs.py src/solver src/resistance src/apps

fixture_out=$(python3 scripts/check_public_docs.py scripts/testdata/docs_gate 2>&1) &&
  fixture_status=0 || fixture_status=$?
for want in "struct Undocumented" "class AlsoUndocumented"; do
  if [ "$fixture_status" -ne 1 ] || ! grep -qF "$want" <<<"$fixture_out"; then
    echo "check_docs: the docs gate missed '$want' in its fixture" \
         "(exit $fixture_status):" >&2
    echo "$fixture_out" >&2
    exit 1
  fi
done
scripts/check_links.sh

if command -v doxygen >/dev/null 2>&1; then
  mkdir -p build-docs
  doxygen Doxyfile
  # Fail on undocumented-symbol warnings specifically (the gate); other
  # doxygen chatter is surfaced but not fatal, so a doxygen version quirk
  # cannot take the job down for reasons unrelated to documentation.
  if grep -E "is not documented|Compound .* is not documented" \
      build-docs/doxygen-warnings.log >/dev/null 2>&1; then
    echo "check_docs: doxygen found undocumented symbols:" >&2
    grep -E "is not documented" build-docs/doxygen-warnings.log >&2
    exit 1
  fi
  if [ -s build-docs/doxygen-warnings.log ]; then
    echo "check_docs: doxygen warnings (non-fatal):" >&2
    cat build-docs/doxygen-warnings.log >&2
  fi
  echo "check_docs: doxygen pass clean (build-docs/html)"
else
  echo "check_docs: doxygen not installed; skipped the doxygen pass" >&2
fi
