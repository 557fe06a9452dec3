#!/usr/bin/env bash
# Run each curve-cache test and the thread test by node id, each in a fresh
# interpreter, so none can lean on cache state that earlier tests leave
# behind.  Stops at the first node that fails or is not found.
# Run from the root of a checkout:
#     bash tests/run_fresh_interpreter_tests.sh
set -u

nodes=(
  tests/test_curve_cache.py::test_search_solves_curve_geometry_once_per_process
  tests/test_curve_cache.py::test_corpus_certificates_do_not_depend_on_the_cache
  tests/test_curve_cache.py::test_moved_certificates_do_not_depend_on_the_cache
  tests/test_curve_cache.py::test_solver_errors_are_raised_again_and_not_kept
  tests/test_curve_cache.py::test_a_pairs_bezout_or_common_component_error_is_kept
  tests/test_curve_cache.py::test_each_point_is_serialized_once_per_certificate
  tests/test_crossvalidation.py::test_certificates_are_threadsafe_and_deterministic
)

for node in "${nodes[@]}"; do
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "$node" || exit 1
done
