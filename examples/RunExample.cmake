# Runs one example program as a test: it must exit 0, and when EXPECT is
# not empty its output must contain that text verbatim.
#   cmake -DEXE=<program> [-DEXPECT=<text>] -P RunExample.cmake
execute_process(COMMAND ${EXE} RESULT_VARIABLE Status OUTPUT_VARIABLE Out
                ERROR_VARIABLE Out)
message("${Out}")
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${Status}")
endif()
if(NOT EXPECT STREQUAL "")
  string(FIND "${Out}" "${EXPECT}" Pos)
  if(Pos EQUAL -1)
    message(FATAL_ERROR "${EXE} did not print: ${EXPECT}")
  endif()
endif()
