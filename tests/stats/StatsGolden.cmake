# Runs `usher-cli --stats --no-run` on one input and compares what it
# prints, less the `analysis time:` line, byte for byte with an expected
# file. Stdout comes first; stderr (the degradation note) and the exit
# code follow it.
#
#   cmake -DCLI=<usher-cli> -DINPUT=<file.tc> -DEXPECTED=<file>
#         [-DARGS=<;-separated usher-cli flags>]
#         [-DGEN=<usher-gen> -DGEN_ARGS=<;-separated flags>]
#         [-DUPDATE=1] -P StatsGolden.cmake
#
# With GEN set, INPUT is first written by `usher-gen GEN_ARGS --out=INPUT`.
# With UPDATE=1 the expected file is rewritten instead of compared.

foreach(var CLI INPUT EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "StatsGolden.cmake: ${var} is not set")
  endif()
endforeach()

if(DEFINED GEN)
  execute_process(COMMAND ${GEN} ${GEN_ARGS} --out=${INPUT}
                  RESULT_VARIABLE gen_status)
  if(NOT gen_status EQUAL 0)
    message(FATAL_ERROR "usher-gen failed: ${gen_status}")
  endif()
endif()

execute_process(COMMAND ${CLI} ${INPUT} --stats --no-run ${ARGS}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
string(REGEX REPLACE "analysis time: [^\n]*\n" "" out "${out}")
set(actual "${out}--- stderr\n${err}--- exit ${status}\n")

if(UPDATE)
  file(WRITE ${EXPECTED} "${actual}")
  return()
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stats differ from ${EXPECTED}; got:\n${actual}")
endif()
message("stats golden: OK")
