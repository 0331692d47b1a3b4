# Runs a program whose flags must be rejected: fails unless it exits with
# status 1 and prints "error: " on stderr, so both a run that ignores the
# bad flag and a crash fail.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" \
#         -P tools/expect_flag_error.cmake
separate_arguments(_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${_args}
                OUTPUT_VARIABLE _out
                ERROR_VARIABLE _err
                RESULT_VARIABLE _status)
if(NOT _status EQUAL 1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with status ${_status}, expected 1")
endif()
if(NOT _err MATCHES "error: ")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} printed no \"error: \" on stderr; got:\n${_err}")
endif()
