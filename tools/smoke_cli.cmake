# Drives the cesrm_cli subcommands end to end; any non-zero exit fails.
set(trace_file ${WORK}/smoke.trace)
foreach(args
    "generate;--trace=4;--packets-cap=2500;--out=${trace_file}"
    "inspect;--in=${trace_file}"
    "estimate;--in=${trace_file};--method=yajnik"
    "estimate;--in=${trace_file};--method=minc"
    "simulate;--in=${trace_file};--protocol=srm"
    "simulate;--in=${trace_file};--protocol=cesrm;--router-assist"
    "simulate;--in=${trace_file};--protocol=lms"
    "compare;--in=${trace_file}"
    "wire-gen;--out=${WORK}/smoke.wire;--count=200;--seed=42"
    "wire-check;--in=${WORK}/smoke.wire"
    "wire-dump;--in=${WORK}/smoke.wire;--max=3")
  execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cesrm_cli ${args} failed with ${rc}")
  endif()
endforeach()

# The LMS path records no result artifacts: asking for one is refused
# (exit 1), not silently ignored.
execute_process(COMMAND ${CLI} simulate --in=${trace_file} --protocol=lms
    --json=${WORK}/smoke_lms.json
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "simulate --protocol=lms --json exited ${rc}, want 1")
endif()

# Malformed input must be diagnosed (exit 2), never crash.
file(WRITE ${WORK}/smoke_bad.wire "not a wire frame")
execute_process(COMMAND ${CLI} wire-check --in=${WORK}/smoke_bad.wire
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "wire-check on garbage exited ${rc}, want 2")
endif()
