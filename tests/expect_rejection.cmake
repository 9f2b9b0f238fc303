# Passes only when a program rejects its input: it must exit with
# status 1 and print a message matching REGEX (stdout and stderr are
# read together). A crash, a success or another message fails.
#
#   cmake -DPROGRAM=<program> -DARGS=<args> -DREGEX=<regex>
#         -P expect_rejection.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: expected exit status 1, "
        "got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "${REGEX}")
    message(FATAL_ERROR "${PROGRAM} ${ARGS}: output does not match "
        "'${REGEX}':\n${out}")
endif()
message(STATUS "${PROGRAM} ${ARGS} was rejected as expected")
