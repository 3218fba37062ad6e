# Runs PROGRAM with ARGS (one space-separated string) and passes only if it
# exits non-zero AND its stderr matches the regex EXPECT — a loud, specific
# failure, not a crash or a silent success.
#
#   cmake -DPROGRAM=<bin> "-DARGS=<args>" "-DEXPECT=<regex>"
#         -P run_expect_error.cmake
foreach(var PROGRAM ARGS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_expect_error.cmake: missing -D${var}=")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${PROGRAM} ${args}
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(result EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "exit ${result}, but stderr does not match '${EXPECT}':\n${stderr}")
endif()
