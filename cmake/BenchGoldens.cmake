# raysched: bench, example and CLI outputs as committed goldens.
#
# bench/expected/runs.txt lists runs as `<golden name> <target> [args...]`.
# Each run's stdout must equal bench/expected/<golden name>.txt byte for
# byte; scripts/pin_bench_outputs.sh rewrites those files.
#
# Usage:
#  * include(cmake/BenchGoldens.cmake) from the top-level lists file, after
#    the bench, example and tool targets exist: registers one ctest
#    bench_golden_<golden name> per run whose target is built. With both
#    RAYSCHED_BUILD_BENCH and RAYSCHED_BUILD_EXAMPLES on, every target must
#    exist: a run naming a deleted or misspelt target is a configure error
#    instead of a golden that silently stops running.
#  * Script mode: cmake -DPROGRAM=<exe> -DARGS=<args> -DEXPECTED=<file>
#    -DACTUAL=<file> -P BenchGoldens.cmake runs one comparison. On a
#    mismatch it writes the output to ACTUAL, prints a diff and fails.

if(CMAKE_SCRIPT_MODE_FILE)
  separate_arguments(_argv UNIX_COMMAND "${ARGS}")
  execute_process(COMMAND "${PROGRAM}" ${_argv}
    OUTPUT_VARIABLE _out RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${_rc}")
  endif()
  file(READ "${EXPECTED}" _want)
  if(NOT _out STREQUAL _want)
    file(WRITE "${ACTUAL}" "${_out}")
    execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
    message(FATAL_ERROR
      "output of ${PROGRAM} ${ARGS} differs from ${EXPECTED} (got "
      "${ACTUAL}). If the move is intended, re-pin with "
      "scripts/pin_bench_outputs.sh and say why in CHANGES.md.")
  endif()
else()
  file(STRINGS "${CMAKE_CURRENT_LIST_DIR}/../bench/expected/runs.txt"
    _raysched_golden_runs REGEX "^[^#]")
  foreach(_run IN LISTS _raysched_golden_runs)
    separate_arguments(_words UNIX_COMMAND "${_run}")
    list(POP_FRONT _words _name _target)
    if(NOT TARGET ${_target})
      if(RAYSCHED_BUILD_BENCH AND RAYSCHED_BUILD_EXAMPLES)
        message(FATAL_ERROR "bench/expected/runs.txt: golden '${_name}' "
          "runs '${_target}', which is not a bench, example or tool target")
      endif()
      continue()
    endif()
    list(JOIN _words " " _args)
    add_test(NAME bench_golden_${_name}
      COMMAND ${CMAKE_COMMAND} "-DPROGRAM=$<TARGET_FILE:${_target}>"
              "-DARGS=${_args}"
              "-DEXPECTED=${CMAKE_SOURCE_DIR}/bench/expected/${_name}.txt"
              "-DACTUAL=${CMAKE_BINARY_DIR}/bench_golden_${_name}.txt"
              -P "${CMAKE_CURRENT_LIST_FILE}")
  endforeach()
endif()
