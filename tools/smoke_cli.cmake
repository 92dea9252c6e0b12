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
    "simulate;--in=${trace_file};--protocol=cesrm;--cache-policy=oracle"
    "compare;--in=${trace_file};--cache-policy=confidence"
    "wire-gen;--out=${WORK}/smoke.wire;--count=200;--seed=42"
    "wire-check;--in=${WORK}/smoke.wire"
    "wire-dump;--in=${WORK}/smoke.wire;--max=3")
  execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cesrm_cli ${args} failed with ${rc}")
  endif()
endforeach()

# LMS runs through run_experiment like SRM and CESRM, so it writes the
# result artifacts.
set(json ${WORK}/smoke_lms.json)
file(REMOVE ${json})
execute_process(COMMAND ${CLI} simulate --in=${trace_file} --protocol=lms
    --json=${json}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT EXISTS ${json})
  message(FATAL_ERROR "simulate --protocol=lms --json exited ${rc} "
                      "without writing ${json}")
endif()

# A bad spelling of each enum flag is refused (exit 1) with one message
# form, "bad --<flag>: '<value>' (valid: ...)". The bad flag is the last
# argument.
foreach(args
    "simulate;--in=${trace_file};--protocol=tcp"
    "netio-run;--protocol=tcp"
    "simulate;--in=${trace_file};--policy=most_recent"
    "simulate;--in=${trace_file};--cache-policy=mru"
    "simulate;--in=${trace_file};--durable=lukewarm"
    "inspect;--in=${trace_file};--log-level=bogus")
  list(GET args -1 bad)
  string(REGEX MATCH "^--([^=]+)=(.*)$" bad "${bad}")
  set(want "bad --${CMAKE_MATCH_1}: '${CMAKE_MATCH_2}' \\(valid: ")
  execute_process(COMMAND ${CLI} ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${want}")
    message(FATAL_ERROR "cesrm_cli ${args} exited ${rc} (${err}), want 1 "
                        "and a message matching \"${want}\"")
  endif()
endforeach()

# Refused before any work (exit 1): a link delay below 1 ms; LMS on
# netio-run, since no socket backend holds its router replier state; the
# confidence/oracle cache policies on netio-run, whose live group has no
# loss trace to back their side info (simulate/compare above run them);
# and --metrics-out and --durable on netio-run, since a live group
# records only --trace-out.
set(netio_metrics ${WORK}/smoke_netio_metrics.json)
file(REMOVE ${netio_metrics})
foreach(args
    "simulate;--in=${trace_file};--link-delay-ms=0"
    "netio-run;--protocol=lms"
    "netio-run;--cache-policy=oracle"
    "netio-run;--metrics-out=${netio_metrics}"
    "netio-run;--durable=warm")
  execute_process(COMMAND ${CLI} ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "cesrm_cli ${args} exited ${rc}, want 1")
  endif()
endforeach()
if(EXISTS ${netio_metrics})
  message(FATAL_ERROR "refused netio-run still wrote ${netio_metrics}")
endif()

# --link-delay-ms reaches the simulated network: a shorter delay changes
# the replay.
execute_process(COMMAND ${CLI} simulate --in=${trace_file}
  RESULT_VARIABLE rc OUTPUT_VARIABLE default_out ERROR_QUIET)
execute_process(COMMAND ${CLI} simulate --in=${trace_file} --link-delay-ms=10
  RESULT_VARIABLE rc10 OUTPUT_VARIABLE delay10_out ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT rc10 EQUAL 0)
  message(FATAL_ERROR "simulate exited ${rc} (default) / ${rc10} (10 ms)")
endif()
if(default_out STREQUAL delay10_out)
  message(FATAL_ERROR "simulate --link-delay-ms=10 printed the default run")
endif()

# Malformed input must be diagnosed (exit 2), never crash.
file(WRITE ${WORK}/smoke_bad.wire "not a wire frame")
execute_process(COMMAND ${CLI} wire-check --in=${WORK}/smoke_bad.wire
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "wire-check on garbage exited ${rc}, want 2")
endif()
