# bench_diff check: run tools/bench_diff.py on a baseline and a candidate
# ledger and require its exit code and a pattern in its output. Pins the
# parser of both ledger kinds: ns/op perf entries, which --fail-above gates,
# and {"value", "unit"} end-to-end entries, which are printed, never gated.
#
#   cmake -DPYTHON=<python3> -DSCRIPT=<bench_diff.py> -DBASELINE=<a.json>
#         -DCANDIDATE=<b.json> [-DFAIL_ABOVE=<ratio>] -DEXPECT_EXIT=<code>
#         -DEXPECT_OUTPUT=<regex> -P check_bench_diff.cmake
cmake_minimum_required(VERSION 3.20)

foreach(input SCRIPT BASELINE CANDIDATE)
  if(NOT EXISTS "${${input}}")
    message(FATAL_ERROR "${input} file not found: '${${input}}'")
  endif()
endforeach()

set(gate "")
if(DEFINED FAIL_ABOVE)
  set(gate "--fail-above=${FAIL_ABOVE}")
endif()
execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${BASELINE}" "${CANDIDATE}" ${gate}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "bench_diff exited ${code}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
    "bench_diff output lacks /${EXPECT_OUTPUT}/:\n${out}${err}")
endif()
message(STATUS "bench_diff exited ${code} and printed /${EXPECT_OUTPUT}/")
