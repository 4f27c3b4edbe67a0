# cmake -DCMD=program -DARG=argument -DEXPECT=status -P expect_exit.cmake
# Runs `program argument` (no argument when ARG is empty) and fails
# unless it exits with exactly `status`.
execute_process(COMMAND ${CMD} ${ARG} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARG}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
