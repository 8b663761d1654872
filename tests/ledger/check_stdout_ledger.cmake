# Stdout ledger check: run PROGRAM with ARGS (one space-separated string)
# and require the MD5 of its stdout to equal the digest in LEDGER. Any
# moved byte fails, printing both digests; a change that moves the output
# on purpose updates the ledger and explains it.
#
# DROP, when set, is a regex: every stdout line containing a match is left
# out of the digest, as `grep -v` would (a bench's wall-clock `elapsed_s=`
# line). The pattern must not match a newline. An output that is empty
# after the drop fails, so the check cannot pass vacuously.
#
#   cmake -DPROGRAM=<binary> "-DARGS=<flags>" -DLEDGER=<digest.md5>
#         [-DDROP=<regex>] -P check_stdout_ledger.cmake
cmake_minimum_required(VERSION 3.20)

foreach(input PROGRAM LEDGER)
  if(NOT EXISTS "${${input}}")
    message(FATAL_ERROR "${input} file not found: '${${input}}'")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited ${code}\n${err}")
endif()

if(NOT "${DROP}" STREQUAL "")
  string(REGEX REPLACE "[^\n]*${DROP}[^\n]*\n?" "" out "${out}")
endif()
if(out STREQUAL "")
  message(FATAL_ERROR "stdout of ${PROGRAM} ${ARGS} is empty after dropping "
                      "lines matching '${DROP}': nothing to check")
endif()

string(MD5 actual "${out}")
file(READ "${LEDGER}" expected)
string(STRIP "${expected}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "stdout of ${PROGRAM} ${ARGS} moved: md5 ${actual}, ledger ${expected} "
    "(${LEDGER})")
endif()
message(STATUS "stdout md5 ${actual} matches ${LEDGER}")
