# Golden-stdout check: runs BENCH and compares its stdout byte for byte with
# the file GOLDEN. Run as `cmake -DBENCH=<exe> -DGOLDEN=<file> -P
# GoldenStdout.cmake`. On a mismatch the actual stdout is left in <exe>.out.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
file(READ ${GOLDEN} expected)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
elseif(NOT actual STREQUAL expected)
  file(WRITE ${BENCH}.out "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual in ${BENCH}.out")
endif()
