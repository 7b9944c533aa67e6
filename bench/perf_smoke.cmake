# Runs a bench in fast mode with the phase profiler armed
# (ZTX_PROF=1) and validates the resulting BENCH_<name>.json with
# json_check --require-prof: the check fails if a prof section is
# malformed or if no record carries an enabled prof snapshot with
# sites. Invoked by the
# perf_smoke ctest target (run it under the LTO build with
# `ctest --preset perf`):
#   cmake -DBENCH_BIN=... -DCHECK_BIN=... -DOUT_DIR=...
#         -DBENCH_NAME=... [-DBENCH_ARGS=...] -P perf_smoke.cmake
foreach(var BENCH_BIN CHECK_BIN OUT_DIR BENCH_NAME)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perf_smoke.cmake: ${var} not set")
    endif()
endforeach()
if(NOT DEFINED BENCH_ARGS)
    set(BENCH_ARGS "")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
        ZTX_BENCH_FAST=1 ZTX_BENCH_ITERS=20 ZTX_PROF=1
        "ZTX_BENCH_JSON=${OUT_DIR}"
        "${BENCH_BIN}" ${BENCH_ARGS}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()

set(json_file "${OUT_DIR}/BENCH_${BENCH_NAME}.json")
if(NOT EXISTS "${json_file}")
    message(FATAL_ERROR "missing JSON report: ${json_file}")
endif()

execute_process(
    COMMAND "${CHECK_BIN}" --require-prof "${json_file}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "json_check --require-prof failed (rc=${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "perf_smoke: ${json_file} OK")
