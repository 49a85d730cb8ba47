# Runs PROGRAM on one input file and fails unless it exits with
# EXIT_CODE and its stderr matches EXPECT. Usage:
#   cmake -DPROGRAM=... -DFLAG=--edge-list -DINPUT=... -DEXIT_CODE=2
#         -DEXPECT=regex -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${FLAG} ${INPUT}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${PROGRAM} ${FLAG} ${INPUT}: exit '${rc}', "
                      "expected ${EXIT_CODE}; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}': ${err}")
endif()
