# Runs the command after `--` and fails unless it exits with EXIT
# (default 2) and its stderr contains MESSAGE — so a crash, which exits
# with a signal, fails even when it printed the right text.
#
#   cmake -DMESSAGE=<text> [-DEXIT=<code>] -P expect_exit.cmake -- prog args...
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "no command after --")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err TIMEOUT 60)
if(NOT "${rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit '${rc}', want ${EXIT}; stderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${MESSAGE}':\n${err}")
endif()
