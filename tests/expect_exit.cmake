# cmake -DCMD=program -DARG=argument -DEXPECT=status [-DMATCH=regex]
#       -P expect_exit.cmake
# Runs `program argument` (no argument when ARG is empty) and fails
# unless it exits with exactly `status` and, with MATCH, unless its
# stdout matches the regular expression.
execute_process(COMMAND ${CMD} ${ARG} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARG}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD} ${ARG}: stdout does not match '${MATCH}'\n${out}")
endif()
