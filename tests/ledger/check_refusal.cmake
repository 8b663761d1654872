# Refusal check: run PROGRAM with ARGS (one space-separated string) and
# require exit code 2, nothing on stdout and a stderr matching MESSAGE, so a
# refused flag stops the program before it prints or computes anything.
#
#   cmake -DPROGRAM=<binary> "-DARGS=<flags>" "-DMESSAGE=<regex>"
#         -P check_refusal.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT EXISTS "${PROGRAM}")
  message(FATAL_ERROR "PROGRAM file not found: '${PROGRAM}'")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited ${code}, not 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${PROGRAM} ${ARGS} printed on stdout:\n${out}")
endif()
if(NOT err MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr of ${PROGRAM} ${ARGS} does not match '${MESSAGE}':\n${err}")
endif()
message(STATUS "${PROGRAM} ${ARGS} refused: ${err}")
