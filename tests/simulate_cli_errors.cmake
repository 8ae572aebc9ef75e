# Runs the simulate example with invalid options and checks that each one
# fails cleanly: exit status 2 and a "simulate:" message on standard error,
# never an abort. Usage:
#   cmake -DSIMULATE=<path to simulate> -P simulate_cli_errors.cmake
if(NOT SIMULATE)
  message(FATAL_ERROR "pass -DSIMULATE=<path to the simulate binary>")
endif()

set(cases
  "--n=0"
  "--k=0"
  "--load=1.5"
  "--n=abc"
  "--trace-capacity=0"
  "--checkpoint-every=1")
set(failures 0)
foreach(arg IN LISTS cases)
  execute_process(
    COMMAND "${SIMULATE}" ${arg} --slots=10 --warmup=0
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT status EQUAL 2 OR NOT err MATCHES "simulate: ")
    message(SEND_ERROR "simulate ${arg}: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  else()
    string(STRIP "${err}" err)
    message(STATUS "simulate ${arg}: exit 2 (${err})")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} invalid-option case(s) did not exit 2")
endif()
