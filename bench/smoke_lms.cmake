# bench_lms checks every simulated recovery against --slo (exit 3 on a
# violation) and, since its runs go through run_experiment, writes the
# artifact flags like every bench: --json holds one result per
# (protocol × {healthy, churned}) job.
set(args --traces=1 --packets-cap=2000)
execute_process(COMMAND ${BENCH} ${args} --slo=recovery_p99<0.0001
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "bench_lms ${args} --slo exited ${rc}, want 3")
endif()

set(json ${WORK}/smoke_lms.json)
file(REMOVE ${json})
execute_process(COMMAND ${BENCH} ${args} --json=${json}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_lms ${args} --json exited ${rc}, want 0")
endif()
if(NOT EXISTS ${json})
  message(FATAL_ERROR "bench_lms did not write ${json}")
endif()
file(READ ${json} doc)
string(REGEX MATCHALL "\"protocol\":\"LMS\"" lms_results "${doc}")
list(LENGTH lms_results n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "bench_lms wrote ${n} LMS results to ${json}, want 2")
endif()
