# Runs one simulator bench and compares its standard output byte for byte
# with a checked-in golden file. The simulator benches are deterministic
# (seeded schedules, virtual time), so any difference means a change moved
# a schedule, a round count or a verdict.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P compare_bench.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}; run `diff ${GOLDEN} ${OUT}`")
endif()
