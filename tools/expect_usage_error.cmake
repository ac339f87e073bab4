# ctest driver: runs EXE with the space-separated ARGS and fails unless it
# exits with code 2, the tools' usage-error code. A crash (an uncaught
# exception aborts with 134) or a run that goes ahead both fail.
#
#   cmake -DEXE=<tool> "-DARGS=<args>" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "'${EXE} ${ARGS}' exited with '${code}', expected 2")
endif()
