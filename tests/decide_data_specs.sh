#!/usr/bin/env bash
# Decide every spec in tests/data with `conic2 verify`, each within 60 s, and
# check its exit code against the table below.  A spec missing from the
# table fails the run, so a new spec must come with its expected code.
# Run from the root of a checkout with the conic2 command installed:
#     bash tests/decide_data_specs.sh
set -u

# exit 1: delta20 fails hypotheses, nonflat_f65536 is not flat, and
# inside_sigma_f65536 certifies 1 of 3 components
declare -A want=([delta20]=1 [nonflat_f65536]=1 [inside_sigma_f65536]=1)

status=0
for path in tests/data/*.json; do
  name=$(basename "$path" .json)
  if [ -z "${want[$name]:-}" ]; then
    echo "$name: no expected exit code in this table"; status=1; continue
  fi
  code=0
  timeout 60 conic2 verify --spec "$path" > /dev/null || code=$?
  echo "$name: exit $code, expected ${want[$name]}"
  [ "$code" -eq "${want[$name]}" ] || status=1
done
exit $status
