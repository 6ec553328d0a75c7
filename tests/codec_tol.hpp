// Env-aware tolerance for accuracy assertions that a quantizing transfer
// codec legitimately loosens. check.sh reruns the mpk/ortho/fault suites
// with CAGMRES_COMPRESS=halo=fp32,reduce=fp32 (sim/codec.hpp): the wire
// then carries ~single-precision coefficients, so results track the
// uncompressed run only to fp32 accuracy. codec_tol(t) returns t normally
// and max(t, coded) when CAGMRES_COMPRESS arms a codec, so one test body
// serves both runs without forking.
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/machine.hpp"

namespace cagmres::test {

inline bool codec_armed() { return sim::env_config().codecs.any_active(); }

inline double codec_tol(double tol, double coded = 1e-5) {
  return codec_armed() ? std::max(tol, coded) : tol;
}

/// Tolerance for one value against an exact host reference. Normally
/// `abs_tol`; with a codec armed, allows an fp32-grade relative error on
/// `expected`, amplified by `growth` (e.g. compounding across MPK steps).
inline double codec_near(double abs_tol, double expected, double growth = 1.0) {
  if (!codec_armed()) return abs_tol;
  return std::max(abs_tol, 1e-6 * growth * (1.0 + std::abs(expected)));
}

}  // namespace cagmres::test
