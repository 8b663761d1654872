# Counter ledger check: the deterministic rows (`metric,value,1`) of a
# metrics CSV written by `--metrics` must equal a checked-in reference,
# row for row. Any difference fails with the rows that moved; a change that
# moves a counter on purpose updates the reference and explains each delta.
#
#   cmake -DMETRICS=<metrics.csv> -DLEDGER=<reference.csv> -P check_counter_ledger.cmake
cmake_minimum_required(VERSION 3.20)

foreach(input METRICS LEDGER)
  if(NOT EXISTS "${${input}}")
    message(FATAL_ERROR "${input} file not found: '${${input}}'")
  endif()
endforeach()

file(STRINGS "${METRICS}" actual REGEX ",1$")
file(STRINGS "${LEDGER}" expected REGEX ",1$")
if(NOT actual STREQUAL expected)
  set(report "")
  foreach(row IN LISTS expected)
    if(NOT row IN_LIST actual)
      string(APPEND report "\n  - ${row}")
    endif()
  endforeach()
  foreach(row IN LISTS actual)
    if(NOT row IN_LIST expected)
      string(APPEND report "\n  + ${row}")
    endif()
  endforeach()
  message(FATAL_ERROR
    "deterministic counters of ${METRICS} differ from ${LEDGER} "
    "(- reference, + this run):${report}")
endif()

list(LENGTH expected n_rows)
message(STATUS "${n_rows} deterministic counter rows match ${LEDGER}")
