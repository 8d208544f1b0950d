# Runs EXE with ARG and requires exit code 2 plus a stderr line that
# starts with "usage: ". Run as:
#   cmake -DEXE=<binary> -DARG=<argument> -P expect_usage.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "(^|\n)usage: ")
  message(FATAL_ERROR "no usage line on stderr\nstderr: ${err}")
endif()
