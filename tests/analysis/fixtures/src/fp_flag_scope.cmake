# Known-bad fixture for lint's `fp-flag-scope` rule, in the shape of
# src/CMakeLists.txt. Never included by the build. Expected findings: 6
# active, 0 suppressed (the rule has no suppression).
set(GROUPFEL_KERNEL_FLAGS -O3 -ffast-math -funroll-loops)
set(GROUPFEL_ELEMENTWISE_FLAGS -O3 -funroll-loops)
list(APPEND GROUPFEL_ELEMENTWISE_FLAGS -march=native)
# FINDING: the GEMM TU is no exception. (Not a finding: a comment that
# mentions -ffast-math is not a flag.)
set_source_files_properties(nn/gemm.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_KERNEL_FLAGS}")
# FINDING x2: two more TUs get -ffast-math through the same flag set.
set_source_files_properties(nn/layers.cpp nn/tensor.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_KERNEL_FLAGS}")
# Not a finding: both conv TUs and the CoV scan keep contraction off.
set_source_files_properties(nn/conv.cpp nn/im2col.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_ELEMENTWISE_FLAGS};-ffp-contract=off")
set_source_files_properties(grouping/cov_scan.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_ELEMENTWISE_FLAGS};-ffp-contract=off")
# FINDING: a bit-exact TU with the native ISA but contraction left on. It
# was listed with -ffp-contract=off first; the later call wins, as in CMake.
set_source_files_properties(runtime/categorical_bulk.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_ELEMENTWISE_FLAGS};-ffp-contract=off")
set_source_files_properties(runtime/categorical_bulk.cpp PROPERTIES
  COMPILE_OPTIONS "${GROUPFEL_ELEMENTWISE_FLAGS}")
# FINDING: fast math for every TU of a target.
target_compile_options(groupfel_nn PRIVATE -Ofast)
# FINDING: fast math for every TU through the global flags.
string(APPEND CMAKE_CXX_FLAGS " -ffast-math")
