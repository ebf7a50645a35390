# Example output gate (run via ctest; see examples/CMakeLists.txt): runs one
# example in a fresh directory (trace_export writes traces/ into its working
# directory) and requires its stdout to match the committed
# examples/expected/<name>.txt byte for byte.  Every example is deterministic,
# so any difference is a change in a decision, a bill or a printed figure.
# After an intended change, copy the new stdout.txt over the expected file
# and say why in the commit message.
#
# Expected variables: EXAMPLE, EXPECTED, OUT_DIR.

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# annual_report writes an extra slot trace when this is set.
unset(ENV{COCA_TRACE_JSONL})

execute_process(
  COMMAND "${EXAMPLE}"
  WORKING_DIRECTORY "${OUT_DIR}"
  OUTPUT_FILE "${OUT_DIR}/stdout.txt"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "example ${EXAMPLE} failed with exit code ${run_rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_DIR}/stdout.txt"
          "${EXPECTED}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  file(READ "${OUT_DIR}/stdout.txt" got)
  message(FATAL_ERROR
          "stdout of ${EXAMPLE} differs from ${EXPECTED}; it printed:\n${got}")
endif()
