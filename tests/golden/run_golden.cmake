# Runs `search_lab run --spec=SPEC --csv=OUT --quiet` and byte-compares OUT
# against GOLDEN. Invoked by CTest (see the golden_* tests in the root
# CMakeLists); keeps the binary-level path under the same regression pin as
# the library-level scenario_golden_test.
#
# The run executes with the full telemetry surface enabled (metrics, event
# log, Chrome trace written next to OUT), so every golden invocation also
# enforces the strict-observation contract at the binary level: a telemetry
# hook that perturbed a result row would break the byte-compare. CI uploads
# the telemetry files as diffing artifacts.
#
#   cmake -DSEARCH_LAB=<bin> -DSPEC=<spec> -DGOLDEN=<csv> -DOUT=<csv>
#         [-DSIMD_LEVEL=scalar|avx2] -P run_golden.cmake
#
# SIMD_LEVEL, when given, is exported as ANTS_SIMD_LEVEL so the batch
# executor's dispatch is pinned for the run: the golden CSVs must be
# byte-identical on EVERY dispatch path, not just the one this machine
# detects. avx2 clamps to scalar on a host without it (see
# sim/batch/simd.h), so forcing it is safe anywhere — there it degenerates
# to a duplicate scalar run, still a valid pin.
foreach(var SEARCH_LAB SPEC GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: missing -D${var}=")
  endif()
endforeach()
if(DEFINED SIMD_LEVEL)
  set(ENV{ANTS_SIMD_LEVEL} ${SIMD_LEVEL})
endif()

execute_process(
  COMMAND ${SEARCH_LAB} run --spec=${SPEC} --csv=${OUT} --quiet
          --metrics-out=${OUT}.metrics.json
          --events=${OUT}.events.jsonl
          --trace=${OUT}.trace.json
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "search_lab failed (${run_result}) on ${SPEC}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
          "golden mismatch: ${OUT} differs from ${GOLDEN} — a behavior "
          "change reached the experiment tables; regenerate the golden only "
          "if the change is intentional")
endif()
