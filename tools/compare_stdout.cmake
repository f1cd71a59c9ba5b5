# Runs PROGRAM with the arguments in ARGS (space-separated) from WORKDIR
# and fails unless its stdout equals the file GOLDEN byte for byte. On a
# mismatch the actual output is written to ACTUAL for diffing.
#
#   cmake -DPROGRAM=... -DARGS=... -DWORKDIR=... -DGOLDEN=... -DACTUAL=... \
#         -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                WORKING_DIRECTORY ${WORKDIR}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; see ${ACTUAL}")
endif()
