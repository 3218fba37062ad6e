# Runs an example binary with its default arguments and byte-compares its
# stdout against EXPECTED. Invoked by CTest (see the example_* tests in the
# root CMakeLists): the examples are seeded, so their printed tables are a
# regression pin on the library paths they drive.
#
#   cmake -DEXAMPLE=<bin> -DEXPECTED=<file> -DOUT=<file> -P run_example.cmake
foreach(var EXAMPLE EXPECTED OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_example.cmake: missing -D${var}=")
  endif()
endforeach()

execute_process(
  COMMAND ${EXAMPLE}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} failed (${run_result})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
  RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
          "example output mismatch: ${OUT} differs from ${EXPECTED} — a "
          "behavior change reached an example; update the expected output "
          "only if the change is intentional")
endif()
