# Runs the bench PROGRAM twice, each time in a fresh directory under WORKDIR,
# and fails unless both runs write the same set of BENCH_*.json files, each
# byte-identical across the runs, and BENCH_<NAME>.json equals the committed
# snapshot GOLDEN byte for byte. The first run's dumps stay in WORKDIR/run1
# for the tests that read them.
#
#   cmake -DPROGRAM=... -DNAME=... -DWORKDIR=... -DGOLDEN=... \
#         -P compare_bench_snapshot.cmake
foreach(run run1 run2)
  file(REMOVE_RECURSE ${WORKDIR}/${run})
  file(MAKE_DIRECTORY ${WORKDIR}/${run})
  execute_process(COMMAND ${PROGRAM}
                  WORKING_DIRECTORY ${WORKDIR}/${run}
                  OUTPUT_QUIET
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${status}")
  endif()
  file(GLOB ${run}_dumps RELATIVE ${WORKDIR}/${run} ${WORKDIR}/${run}/BENCH_*.json)
endforeach()

if(NOT run1_dumps STREQUAL run2_dumps)
  message(FATAL_ERROR "the two runs wrote different dumps: [${run1_dumps}] vs [${run2_dumps}]")
endif()
foreach(dump ${run1_dumps})
  file(SHA256 ${WORKDIR}/run1/${dump} first)
  file(SHA256 ${WORKDIR}/run2/${dump} second)
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "${dump} differs between two runs in ${WORKDIR}")
  endif()
endforeach()

set(snapshot ${WORKDIR}/run1/BENCH_${NAME}.json)
if(NOT EXISTS ${snapshot})
  message(FATAL_ERROR "${PROGRAM} did not write BENCH_${NAME}.json")
endif()
file(SHA256 ${snapshot} fresh)
file(SHA256 ${GOLDEN} committed)
if(NOT fresh STREQUAL committed)
  message(FATAL_ERROR "${snapshot} differs from ${GOLDEN}\n"
                      "(if the change is intentional: cp ${snapshot} ${GOLDEN})")
endif()
