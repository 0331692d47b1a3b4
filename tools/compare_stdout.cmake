# Runs a program and byte-compares its stdout with a recorded file; fails
# (non-zero exit) on any difference or on a failing run.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DEXPECTED=<file> \
#         -P tools/compare_stdout.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${_args}
                OUTPUT_VARIABLE _actual
                RESULT_VARIABLE _status)
if(NOT _status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with status ${_status}")
endif()
file(READ "${EXPECTED}" _expected)
if(NOT _actual STREQUAL _expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} differs from ${EXPECTED}; got:\n${_actual}")
endif()
