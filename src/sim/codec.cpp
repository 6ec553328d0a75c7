#include "sim/codec.hpp"

#include <cmath>

#include "common/error.hpp"

namespace cagmres::sim {

double wire_bytes(Codec c, double n_values) {
  if (n_values <= 0.0) return 0.0;
  return (c == Codec::kFp32 ? 4.0 : 8.0) * n_values;
}

void roundtrip(Codec c, double* x, int n) {
  if (c == Codec::kNone) return;
  for (int i = 0; i < n; ++i) {
    // Keep non-finite payloads intact; float demotion would preserve
    // them anyway, but the intent deserves to be explicit.
    if (std::isfinite(x[i])) {
      x[i] = static_cast<double>(static_cast<float>(x[i]));
    }
  }
}

std::string to_string(Codec c) {
  return c == Codec::kFp32 ? "halo=fp32" : "none";
}

Codec parse_codec_config(const std::string& spec) {
  Codec out = Codec::kNone;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      throw Error("codec spec: want halo=codec: " + entry);
    const std::string cls = entry.substr(0, eq);
    const std::string codec = entry.substr(eq + 1);
    if (cls == "reduce" || cls == "ckpt") {
      throw Error("codec spec: the " + cls +
                  " traffic class was removed; only halo takes a codec: " +
                  entry);
    }
    if (cls != "halo")
      throw Error("codec spec: unknown traffic class (want halo): " + cls);
    if (codec == "frsz2" || codec.rfind("frsz2:", 0) == 0) {
      throw Error("codec spec: the frsz2 codec was removed; want none|fp32: " +
                  entry);
    }
    if (codec == "none") {
      out = Codec::kNone;
    } else if (codec == "fp32") {
      out = Codec::kFp32;
    } else {
      throw Error("codec spec: unknown codec (want none|fp32): " + codec);
    }
  }
  return out;
}

}  // namespace cagmres::sim
