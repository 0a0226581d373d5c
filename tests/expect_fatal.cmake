# Passes only if a command exits non-zero and its output (stdout and
# stderr together) matches the regex EXPECT:
#
#   cmake -DEXPECT=<regex> -P expect_fatal.cmake -- <command> [args...]
#
# A ctest PASS_REGULAR_EXPRESSION alone would ignore the exit status.
set(_command)
set(_after_separator FALSE)
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE ${_last})
    if(_after_separator)
        list(APPEND _command "${CMAKE_ARGV${_i}}")
    elseif(CMAKE_ARGV${_i} STREQUAL "--")
        set(_after_separator TRUE)
    endif()
endforeach()
if(NOT _command)
    message(FATAL_ERROR "expect_fatal: no command after --")
endif()

execute_process(COMMAND ${_command}
    RESULT_VARIABLE _status
    OUTPUT_VARIABLE _output
    ERROR_VARIABLE _output)
if(_status EQUAL 0)
    message(FATAL_ERROR "expect_fatal: exited 0, expected a failure:\n"
                        "${_output}")
endif()
if(NOT _output MATCHES "${EXPECT}")
    message(FATAL_ERROR "expect_fatal: output does not match '${EXPECT}' "
                        "(exit ${_status}):\n${_output}")
endif()
