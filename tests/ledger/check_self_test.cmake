# check_self_test check: run tools/check_self_test.py on a self-test log and
# the digest ledger and require its exit code and a pattern in its output.
# Pins the log parser and the three verdicts: a matching log passes, and a
# moved digest or a missing workload exits 1.
#
#   cmake -DPYTHON=<python3> -DSCRIPT=<check_self_test.py> -DLOG=<log>
#         -DLEDGER=<digests.txt> -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex>
#         -P check_self_test.cmake
cmake_minimum_required(VERSION 3.20)

foreach(input SCRIPT LOG LEDGER)
  if(NOT EXISTS "${${input}}")
    message(FATAL_ERROR "${input} file not found: '${${input}}'")
  endif()
endforeach()

execute_process(COMMAND "${PYTHON}" "${SCRIPT}" "${LOG}" "${LEDGER}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "check_self_test exited ${code}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR
    "check_self_test output lacks /${EXPECT_OUTPUT}/:\n${out}${err}")
endif()
message(STATUS "check_self_test exited ${code} and printed /${EXPECT_OUTPUT}/")
