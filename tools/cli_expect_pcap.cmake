# Positive CLI check: run `ehdlc sim ... --pcap-out OUT` and check that it
# exits 0 and writes a pcap holding at least one packet (more than the
# 24-byte pcap global header).
#
# Usage:
#   cmake -DEHDLC=<path> -DARGS="arg1|arg2|..." -DOUT=<file.pcap>
#         -P cli_expect_pcap.cmake
#
# ARGS is '|'-separated because a ';' list would be split by add_test.

string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${OUT}")
execute_process(COMMAND "${EHDLC}" sim ${args} --pcap-out "${OUT}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ehdlc sim exited ${rc}; output:\n${out}${err}")
endif()
if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "no pcap written to ${OUT}; output:\n${out}${err}")
endif()
file(SIZE "${OUT}" size)
if(size LESS_EQUAL 24)
    message(FATAL_ERROR
            "pcap ${OUT} holds no packets (${size} bytes); output:\n"
            "${out}${err}")
endif()
