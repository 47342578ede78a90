# Runs one example program and fails unless it exits 0 and its standard
# output matches a regular expression.
#
#   cmake -DEXE=<program> "-DARGS=<arg arg>" -DEXPECT=<regex> -P run_example.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE}: no output line matches '${EXPECT}'\n${out}")
endif()
message(STATUS "${EXE}: ok")
