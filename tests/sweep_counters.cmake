# Pins paper_sweep's deterministic counters: runs the sweep at
# NDP_BENCH_SCALE=256 with NDP_VERIFY=cheap and compares every `[sweep]`
# stderr line except the wall-clock `runs on` lines (the split-plan
# cache's memoized/computed totals and the verifier's instance and
# finding counts) with the checked-in golden file, naming the first
# line that differs. NDP_UPDATE_GOLDEN=1 rewrites the golden file.
#
#   cmake -DSWEEP=<paper_sweep> -DGOLDEN=<file> -P sweep_counters.cmake

set(ENV{NDP_BENCH_SCALE} 256)
set(ENV{NDP_VERIFY} cheap)
unset(ENV{NDP_VERIFY_JSON})
execute_process(COMMAND ${SWEEP}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_sweep exited with ${rc}:\n${err}")
endif()

string(REPLACE "\n" ";" err_lines "${err}")
set(got)
foreach(line IN LISTS err_lines)
    if(line MATCHES "^\\[sweep\\] " AND NOT line MATCHES " runs on ")
        list(APPEND got "${line}")
    endif()
endforeach()

if(DEFINED ENV{NDP_UPDATE_GOLDEN})
    list(JOIN got "\n" text)
    file(WRITE ${GOLDEN} "${text}\n")
    message(STATUS "rewrote ${GOLDEN}")
    return()
endif()

file(STRINGS ${GOLDEN} want)
list(LENGTH want want_count)
list(LENGTH got got_count)
if(want_count GREATER got_count)
    set(count ${want_count})
else()
    set(count ${got_count})
endif()
set(i 0)
while(i LESS count)
    set(w "<none>")
    set(g "<none>")
    if(i LESS want_count)
        list(GET want ${i} w)
    endif()
    if(i LESS got_count)
        list(GET got ${i} g)
    endif()
    if(NOT w STREQUAL g)
        math(EXPR n "${i} + 1")
        message(FATAL_ERROR "sweep counter line ${n} differs from "
            "${GOLDEN}:\n  expected: ${w}\n  got:      ${g}")
    endif()
    math(EXPR i "${i} + 1")
endwhile()
message(STATUS "${got_count} sweep counter lines match ${GOLDEN}")
