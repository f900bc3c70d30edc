#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. Build output goes to standard
# error; the last line of standard output is the benchmark's JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/main.ml ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and" \
    "perfbench/main.ml must be present)" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune is not on PATH" >&2
  exit 2
fi

dune build --root . --cache=disabled ./perfbench/main.exe >&2

commit=unknown
if [[ -e .git ]] && command -v git >/dev/null 2>&1; then
  commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

exec ./_build/default/perfbench/main.exe "$@" --commit "$commit"
