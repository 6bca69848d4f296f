# Runs BINARY and checks that its stdout equals the GOLDEN file byte for
# byte; on a mismatch it writes the output next to the test and prints a diff.
#
#   cmake -DBINARY=<executable> -DGOLDEN=<file> -P check_golden.cmake
execute_process(COMMAND ${BINARY} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual: ${actual_file})")
endif()
