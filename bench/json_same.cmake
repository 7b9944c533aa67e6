# Checks `json_check --same A B` on three hand-made pairs: equal
# documents, documents that differ only in host timing (sim_speed
# host fields and a prof object), and documents that differ in one
# record value. Invoked by the json_check_same ctest target:
#   cmake -DCHECK_BIN=... -DOUT_DIR=... -P json_same.cmake
foreach(var CHECK_BIN OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "json_same.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# One report; %HOST% and %PROF% vary the host-timing fields, %VALUE%
# a simulated result.
set(template [=[
{"kind": "ztx.bench", "schema_version": 1, "bench": "unit",
 "meta": {"iterations": 20},
 "records": [{"cpus": 2, "throughput": %VALUE%%PROF%}],
 "sim_speed": {"host_seconds": %HOST%, "sim_cycles": 1000,
   "instructions": 500,
   "sim_cycles_per_host_second": %HOST%,
   "instructions_per_host_second": %HOST%}}
]=])

function(write_doc name value host prof)
    string(REPLACE "%VALUE%" "${value}" doc "${template}")
    string(REPLACE "%HOST%" "${host}" doc "${doc}")
    string(REPLACE "%PROF%" "${prof}" doc "${doc}")
    file(WRITE "${OUT_DIR}/${name}.json" "${doc}")
endfunction()

write_doc(base 0.25 1.5 "")
write_doc(host 0.25 2.5
    [=[, "prof": {"enabled": true, "sites": {}}]=])
write_doc(value 0.5 1.5 "")

function(expect_same a b want_rc)
    execute_process(
        COMMAND "${CHECK_BIN}" --same "${OUT_DIR}/${a}.json"
            "${OUT_DIR}/${b}.json"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(want_rc EQUAL 0 AND NOT rc EQUAL 0)
        message(FATAL_ERROR "--same ${a} ${b}: rc=${rc}, want 0:\n"
            "${out}\n${err}")
    endif()
    if(NOT want_rc EQUAL 0 AND rc EQUAL 0)
        message(FATAL_ERROR "--same ${a} ${b}: passed, want a "
            "difference:\n${out}")
    endif()
endfunction()

expect_same(base base 0)
expect_same(base host 0)
expect_same(base value 1)
message(STATUS "json_same: --same OK")
