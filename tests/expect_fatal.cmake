# Passes when a command exits with status 1 and its stderr holds a
# `fatal: ` line matching EXPECT (a regular expression):
#
#   cmake -DEXPECT=<regex> [-DREJECT=<regex>] -P expect_fatal.cmake \
#       -- <command> [args...]
#
# With REJECT set, it also fails when stdout or stderr matches REJECT
# (output the command must not print before it fails).
#
# PASS_REGULAR_EXPRESSION alone would ignore the exit status.

set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_command)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(in_command TRUE)
    endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
    message(FATAL_ERROR
        "usage: cmake -DEXPECT=<regex> -P expect_fatal.cmake -- <command>")
endif()

execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "exit status ${status}, want 1\nstderr:\n${err}")
endif()
if(NOT err MATCHES "fatal: ${EXPECT}")
    message(FATAL_ERROR "stderr lacks 'fatal: ${EXPECT}':\n${err}")
endif()
if(DEFINED REJECT AND "${out}${err}" MATCHES "${REJECT}")
    message(FATAL_ERROR "output matches '${REJECT}':\n${out}${err}")
endif()
