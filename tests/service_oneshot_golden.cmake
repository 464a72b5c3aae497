# Cross-commit pin (run via cmake -P from ctest): df_service --oneshot on a
# fixed 2-device spec with substrate faults must print exactly the committed
# result document. Its hashes cover the corpus, stats, analytics, snapshot
# counters and the trace (including every kDistill event of the dry-run
# distill at each checkpoint), so any drift in campaign or replay behaviour
# fails here. A change that deliberately alters trajectories re-records the
# golden file (see tests/fixtures/README.md).
# Inputs: SERVICE, SPEC, GOLDEN, SCRATCH.

file(REMOVE_RECURSE ${SCRATCH})
execute_process(
  COMMAND ${SERVICE} --oneshot ${SPEC} --scratch ${SCRATCH}
  OUTPUT_VARIABLE got
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "df_service --oneshot failed (rc=${rc}):\n${got}")
endif()

file(READ ${GOLDEN} want)
string(STRIP "${got}" got)
string(STRIP "${want}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "oneshot result drifted from ${GOLDEN}\n"
          "  want: ${want}\n"
          "  got:  ${got}")
endif()
