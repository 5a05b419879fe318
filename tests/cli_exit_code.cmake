# Runs `${CLI}` with the '|'-separated arguments in ARGS and fails unless it
# exits with EXPECT. Used by the dnlr_cli tests in CMakeLists.txt: ctest
# alone can only tell zero from non-zero, and a usage error must be exit 2.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT}\n${out}\n${err}")
endif()
