# One golden test: run a binary (an example, or apcc_cli
# wire-roundtrip) and diff its stdout against the checked-in golden.
#   cmake -DEXAMPLE=<binary> [-DARGS=<a,b,...>] -DGOLDEN=<golden.txt>
#         -DACTUAL=<out.txt> [-DREGEN=<command>] -P this
# ARGS is comma-separated (a ctest argument cannot carry a ';'). REGEN
# is the command a failure offers for rewriting the golden; by default,
# the binary's stdout redirected into it.
string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," " " shown_args "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
          "${EXAMPLE} ${shown_args} exited with ${status}:\n${errors}")
endif()
file(WRITE ${ACTUAL} "${actual}")
execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL}
                OUTPUT_VARIABLE diff
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message("${diff}")
  if(NOT DEFINED REGEN)
    set(REGEN "${EXAMPLE} ${shown_args} > ${GOLDEN}")
  endif()
  message(FATAL_ERROR "output differs from the golden; if the change is "
                      "deliberate, rewrite it with `${REGEN}`")
endif()
