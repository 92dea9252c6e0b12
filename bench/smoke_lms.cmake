# bench_lms checks every simulated recovery against --slo (exit 3 on a
# violation) and refuses artifact flags it cannot honour (exit 1).
set(args --traces=1 --packets-cap=2000 --slo=recovery_p99<0.0001)
execute_process(COMMAND ${BENCH} ${args}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "bench_lms ${args} exited ${rc}, want 3")
endif()

set(json ${WORK}/smoke_lms.json)
file(REMOVE ${json})
execute_process(COMMAND ${BENCH} ${args} --json=${json}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bench_lms ${args} --json exited ${rc}, want 1")
endif()
if(EXISTS ${json})
  message(FATAL_ERROR "bench_lms wrote ${json} although it refused --json")
endif()
