# cmake -DCMD=program -DKEEP=0|1 -DDIR=directory -P jit_scratch.cmake
# Runs `program 2` with TMPDIR=DIR (emptied first), JITFD_KEEP=KEEP and no
# persistent JITFD_CACHE_DIR. The run must succeed; afterwards DIR must be
# empty when KEEP is 0 and hold a jitfd-cache-<pid> directory with a
# compiled kernel when KEEP is 1.
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
set(ENV{TMPDIR} ${DIR})
set(ENV{JITFD_KEEP} ${KEEP})
unset(ENV{JITFD_CACHE_DIR})
execute_process(COMMAND ${CMD} 2 RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} 2: exit ${rc}\n${err}")
endif()
file(GLOB left ${DIR}/*)
file(GLOB kernels ${DIR}/jitfd-cache-*/*.so)
if(KEEP)
  if(NOT kernels)
    message(FATAL_ERROR "JITFD_KEEP=1 left no compiled kernel in ${DIR}")
  endif()
elseif(left)
  message(FATAL_ERROR "JITFD_KEEP=0 left ${left} behind")
endif()
file(REMOVE_RECURSE ${DIR})
