#!/usr/bin/env bash
# Run each test marked fresh_interpreter (the process-wide cache tests and
# the thread test) by node id, each in a fresh interpreter, so none can
# lean on cache state that earlier tests leave behind.  Stops at the first
# node that fails, or when collection fails or finds none.
# Run from the root of a checkout:
#     bash tests/run_fresh_interpreter_tests.sh
set -u
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

collected=$(python -m pytest -q --collect-only -m fresh_interpreter) || { echo "$collected"; exit 1; }
mapfile -t nodes < <(grep '::' <<< "$collected")

for node in "${nodes[@]}"; do
  python -m pytest -q "$node" || exit 1
done
