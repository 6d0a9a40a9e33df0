# One Example golden test: run an example binary and diff its stdout
# against the checked-in golden.
#   cmake -DEXAMPLE=<binary> [-DARGS=<a,b,...>] -DGOLDEN=<golden.txt>
#         -DACTUAL=<out.txt> -P this
# ARGS is comma-separated (a ctest argument cannot carry a ';').
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} ${args} exited with ${status}:\n${errors}")
endif()
file(WRITE ${ACTUAL} "${actual}")
execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL}
                OUTPUT_VARIABLE diff
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message("${diff}")
  message(FATAL_ERROR "example output differs from the golden; if the "
                      "change is deliberate, rewrite it with "
                      "`${EXAMPLE} ${args} > ${GOLDEN}`")
endif()
