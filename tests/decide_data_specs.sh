#!/usr/bin/env bash
# Decide every spec in tests/data with `conic2 verify`, each within 60 s, and
# check its exit code against the table below.  A spec missing from the
# table fails the run, so a new spec must come with its expected code.  Each
# line also gives the spec's wall time, so a log shows the cold path's speed.
# Run from the root of a checkout:
#     bash tests/decide_data_specs.sh
# It uses the conic2 command where one is installed, and otherwise runs the
# checkout's own source as `python -m conic2.cli`.
set -u

if command -v conic2 > /dev/null; then
  conic2=(conic2)
else
  export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
  conic2=(python -m conic2.cli)
fi

# exit 1: delta20, delta20_f4 and the F_16 and F_256 cold rungs fail
# hypotheses, nonflat_f65536 is not flat, and inside_sigma_f65536 certifies
# 1 of 3 components
declare -A want=([delta20]=1 [delta20_f4]=1 [cold_f16_2002]=1 [cold_f256_2001]=1
                 [nonflat_f65536]=1 [inside_sigma_f65536]=1)

status=0
for path in tests/data/*.json; do
  name=$(basename "$path" .json)
  if [ -z "${want[$name]:-}" ]; then
    echo "$name: no expected exit code in this table"; status=1; continue
  fi
  code=0
  start=${EPOCHREALTIME/[.,]/}  # microseconds
  timeout 60 "${conic2[@]}" verify --spec "$path" > /dev/null || code=$?
  ms=$(( (${EPOCHREALTIME/[.,]/} - start) / 1000 ))
  printf '%s: exit %s, expected %s, %d.%03d s\n' "$name" "$code" "${want[$name]}" $((ms / 1000)) $((ms % 1000))
  [ "$code" -eq "${want[$name]}" ] || status=1
done
exit $status
