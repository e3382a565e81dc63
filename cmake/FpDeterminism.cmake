# raysched: floating-point determinism hardening (the build-side companion
# of the RS-N rules in tools/raysched_check).
#
# The Theorem-1 numerics are pinned bit-for-bit: the batched and log-space
# evaluators must reproduce the scalar reference exactly, and
# tests/test_fp_determinism.cpp holds committed bit-pattern goldens that a
# GCC and a Clang build must both hit. Two build-level hazards can silently
# break that:
#
#  * Value-changing FP optimization flags (-ffast-math, its component
#    -funsafe-math-optimizations, or -Ofast which implies both) reassociate
#    and approximate; any of them leaking in through CMAKE_CXX_FLAGS or a
#    toolchain file invalidates every pinned golden and the log-space
#    underflow contracts. Configure must fail loudly, not produce a build
#    whose tests fail mysteriously.
#
#  * FMA contraction (`a * b + c` fused to one rounding) is applied at the
#    compiler's discretion per expression, so GCC and Clang can legally
#    disagree bit-for-bit. `-ffp-contract=off` pins the math core to the
#    two-rounding IEEE semantics both compilers implement identically.
#
# Usage:
#  * include(cmake/FpDeterminism.cmake) from the top-level lists file:
#    rejects bad flags at configure time and defines
#    raysched_harden_fp(<target>) for the math-core library.
#  * Script mode: cmake -DFP_CHECK_FLAGS=<flags> -P FpDeterminism.cmake
#    runs the same rejection against FP_CHECK_FLAGS, so a negative CTest
#    (fp_guard_rejects_fast_math, WILL_FAIL) proves the guard trips.

function(raysched_check_fp_flags flags where)
  foreach(bad IN ITEMS "-ffast-math" "-funsafe-math-optimizations" "-Ofast")
    string(FIND "${flags}" "${bad}" _raysched_fp_hit)
    if(NOT _raysched_fp_hit EQUAL -1)
      message(FATAL_ERROR
        "raysched: '${bad}' found in ${where}. Value-changing FP "
        "optimizations break the Theorem-1 bit-identity goldens "
        "(tests/test_fp_determinism.cpp) and the log-space underflow "
        "contracts; build without it.")
    endif()
  endforeach()
endfunction()

# Pins a target's FP semantics to plain IEEE double rounding: no FMA
# contraction, so GCC and Clang produce bit-identical Theorem-1 outputs.
function(raysched_harden_fp target)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
    target_compile_options(${target} PRIVATE -ffp-contract=off)
  endif()
endfunction()

if(CMAKE_SCRIPT_MODE_FILE)
  raysched_check_fp_flags("${FP_CHECK_FLAGS}" "FP_CHECK_FLAGS")
  message(STATUS
    "raysched: no value-changing FP flags in '${FP_CHECK_FLAGS}'")
else()
  string(TOUPPER "${CMAKE_BUILD_TYPE}" _raysched_fp_cfg)
  raysched_check_fp_flags(
    "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_raysched_fp_cfg}}"
    "CMAKE_CXX_FLAGS / CMAKE_CXX_FLAGS_${_raysched_fp_cfg}")
  unset(_raysched_fp_cfg)
endif()
