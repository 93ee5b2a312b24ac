# Runs one program with one argument and fails unless it exits with code EXIT
# within 10 s and its output matches the regex MATCH:
#   cmake -DEXE=<program> -DARG=<argument> -DEXIT=<code> -DMATCH=<regex> -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}" RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE out TIMEOUT 10)
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "${EXE} ${ARG}: exit '${code}', expected ${EXIT}\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${EXE} ${ARG}: output does not match '${MATCH}'\n${out}")
endif()
