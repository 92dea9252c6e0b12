# bench_ablation checks every simulated recovery against --slo (exit 3 on
# a violation) and writes the artifact flags like every bench: --json
# holds one result per job, so exactly two LMS results (the LMS axis's
# healthy and churned runs) on one trace.
set(args --traces=1 --packets-cap=2000)
execute_process(COMMAND ${BENCH} ${args} --slo=recovery_p99<0.0001
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "bench_ablation ${args} --slo exited ${rc}, want 3")
endif()

set(json ${WORK}/smoke_ablation.json)
file(REMOVE ${json})
execute_process(COMMAND ${BENCH} ${args} --json=${json}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_ablation ${args} --json exited ${rc}, want 0")
endif()
if(NOT EXISTS ${json})
  message(FATAL_ERROR "bench_ablation did not write ${json}")
endif()
file(READ ${json} doc)
string(REGEX MATCHALL "\"protocol\":\"LMS\"" lms_results "${doc}")
list(LENGTH lms_results n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR
    "bench_ablation wrote ${n} LMS results to ${json}, want 2")
endif()
