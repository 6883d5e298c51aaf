# Negative CLI check: run a tool on arguments it must reject and
# check that it exits nonzero with a message matching EXPECT (so a
# generic library error such as "stoi" does not count as a rejection).
#
# Usage:
#   cmake -DTOOL=<path> -DARGS="arg1|arg2|..." -DEXPECT=<regex>
#         -P cli_expect_reject.cmake
#
# ARGS is '|'-separated because a ';' list would be split by add_test.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(all "${out}${err}")

if(rc EQUAL 0)
    message(FATAL_ERROR
            "expected nonzero exit for '${ARGS}', got 0; output:\n${all}")
endif()
if(NOT all MATCHES "${EXPECT}")
    message(FATAL_ERROR
            "expected a message matching '${EXPECT}' for '${ARGS}' "
            "(exit ${rc}); output:\n${all}")
endif()
