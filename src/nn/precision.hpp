// Storage precision selector for the GEMM/conv compute core.
//
// Reduced precision in this codebase is a STORAGE format: operand packs hold
// bf16 bits while every accumulation runs in fp32 (the wire codec, chosen
// separately by compression::Codec, may carry fp16). The selector therefore changes which values the kernels consume — each
// operand element is rounded once, RNE, via util/half.hpp — but never the
// accumulation order, so a given precision stays bit-identical across thread
// pool sizes just like the fp32 path.
#pragma once

#include <cstdint>

namespace groupfel::nn {

enum class StoragePrecision : std::uint8_t {
  kFp32 = 0,  ///< full-width storage (the oracle path)
  kBf16 = 1,  ///< bfloat16 storage, fp32 accumulation
};

inline const char* to_string(StoragePrecision p) {
  return p == StoragePrecision::kBf16 ? "bf16" : "fp32";
}

}  // namespace groupfel::nn
