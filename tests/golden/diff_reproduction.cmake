# One Reproduction test: run `apcc_reproduce <table>` and diff its stdout
# against the checked-in golden.
#   cmake -DREPRODUCE=<apcc_reproduce> -DTABLE=<name> -DGOLDEN=<golden.txt>
#         -DACTUAL=<out.txt> -P this
# With -DEXPECT_TABLES=<a,b,...> instead of GOLDEN/ACTUAL, TABLE is a name
# apcc_reproduce must reject: it must exit nonzero, print nothing on
# stdout, and list exactly those tables (in any order) on stderr.
execute_process(COMMAND ${REPRODUCE} ${TABLE}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)

if(DEFINED EXPECT_TABLES)
  if(status EQUAL 0 OR NOT actual STREQUAL "")
    message(FATAL_ERROR "apcc_reproduce ${TABLE} exited with ${status} "
                        "and printed:\n${actual}")
  endif()
  if(NOT errors MATCHES "\ntables:([^\n]*)\n")
    message(FATAL_ERROR "no table list in the usage message:\n${errors}")
  endif()
  string(STRIP "${CMAKE_MATCH_1}" listed)
  string(REPLACE " " ";" listed "${listed}")
  string(REPLACE "," ";" expected "${EXPECT_TABLES}")
  list(SORT listed)
  list(SORT expected)
  if(NOT listed STREQUAL expected)
    message(FATAL_ERROR "apcc_reproduce lists '${listed}', but the goldens "
                        "are '${expected}'")
  endif()
  return()
endif()

if(NOT status EQUAL 0)
  message(FATAL_ERROR "apcc_reproduce ${TABLE} exited with ${status}:\n"
                      "${errors}")
endif()
file(WRITE ${ACTUAL} "${actual}")
execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL}
                OUTPUT_VARIABLE diff
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message("${diff}")
  message(FATAL_ERROR "reproduction table differs from the golden; if the "
                      "change is deliberate, run "
                      "tools/regen_reproduction_goldens.sh")
endif()
