// A header-only stub kept for one reader: the served-request benchmark
// (perfbench/served_bench.cc) prints SimdModeName(ActiveSimdMode()) in its
// run fingerprint. Every grouping and Satisfies sweep runs one portable
// scalar pass (storage/row_span.cc), so the only mode is kScalar. Nothing
// else in the tree includes this header.

#ifndef FDREPAIR_COMMON_SIMD_H_
#define FDREPAIR_COMMON_SIMD_H_

namespace fdrepair {
namespace simd {

enum class SimdMode {
  kScalar,
};

inline SimdMode ActiveSimdMode() { return SimdMode::kScalar; }

inline const char* SimdModeName(SimdMode) { return "scalar"; }

}  // namespace simd
}  // namespace fdrepair

#endif  // FDREPAIR_COMMON_SIMD_H_
