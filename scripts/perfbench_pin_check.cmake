# Run one perfbench workload at its tiny size and compare the fingerprint
# it prints with the "tiny" pin in perfbench/pins.json.
#
#   cmake -DBIN=path/to/perfbench -DWORKLOAD=fig4-sweep -DSEED=1
#         -DPINS=perfbench/pins.json -DDIR=work/dir -P perfbench_pin_check.cmake
execute_process(
  COMMAND ${BIN} --workload ${WORKLOAD} --tiny 1 --mode run --seed ${SEED}
          --dir ${DIR}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perfbench ${WORKLOAD} exited ${rc}\n${err}\n${out}")
endif()
string(JSON actual GET "${out}" fingerprint)
file(READ ${PINS} pins)
string(JSON pinned GET "${pins}" tiny ${WORKLOAD} ${SEED})
if(NOT actual STREQUAL pinned)
  message(FATAL_ERROR
          "perfbench ${WORKLOAD} seed ${SEED}: fingerprint ${actual} != "
          "pinned ${pinned} (the trajectory, the merged report or a mem.* "
          "gauge moved; see README \"Host-time benchmark\")")
endif()
message(STATUS "perfbench ${WORKLOAD}: fingerprint ${actual} matches its pin")
