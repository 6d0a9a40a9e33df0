# One Reproduction.<bench> test: run the bench's table-only mode and
# diff its stdout against the checked-in golden.
#   cmake -DBENCH=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> -P this
execute_process(COMMAND ${BENCH} --benchmark_filter=zzz
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}:\n${errors}")
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
