# Runs PROGRAM on one input file and fails unless it exits with
# EXIT_CODE and its stderr matches EXPECT. Usage:
#   cmake -DPROGRAM=... -DFLAG=--edge-list -DINPUT=... -DEXIT_CODE=2
#         -DEXPECT=regex [-DEXTRA_ARGS=arg1;arg2...] -P expect_exit.cmake
# EXTRA_ARGS (optional) is a list of arguments passed before FLAG.
execute_process(COMMAND ${PROGRAM} ${EXTRA_ARGS} ${FLAG} ${INPUT}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${PROGRAM} ${EXTRA_ARGS} ${FLAG} ${INPUT}: exit "
                      "'${rc}', expected ${EXIT_CODE}; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}': ${err}")
endif()
