# Runs scenario_runner (-DRUNNER=path) with malformed numeric flags: each
# must exit 2 with "invalid value for --X" instead of running.  Without the
# check, --scale=abc parsed as 0 and a zero-length run printed OK.
set(cases
  "--scale=abc" "--scale"
  "--scale=0" "--scale"
  "--scale=1.5x" "--scale"
  "--items-scale=-2" "--items-scale"
  "--telemetry-window=0" "--telemetry-window"
  "--seed=-1" "--seed"
  "--shards=two" "--shards")
list(LENGTH cases n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET cases ${i} arg)
  list(GET cases ${j} flag)
  execute_process(COMMAND ${RUNNER} --scenario=long_churn --quiet ${arg}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 120)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "invalid value for ${flag}")
    message(FATAL_ERROR "${arg}: exit ${rc}\nstdout: ${out}\nstderr: ${err}")
  endif()
endforeach()
