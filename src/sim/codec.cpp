#include "sim/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace cagmres::sim {

namespace {

// One FRSZ2 block: scale every value into a fixed-point grid anchored at the
// block's largest exponent, then decode back. All scaling is by powers of two
// (ldexp), so a block whose values need at most bits-1 mantissa bits — in
// particular any constant block — round-trips exactly.
void frsz2_block(double* x, int n, int bits) {
  double amax = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return;  // pass through: poison must survive
    amax = std::max(amax, std::fabs(x[i]));
  }
  if (amax == 0.0) return;
  int e = 0;
  std::frexp(amax, &e);  // amax = f * 2^e with f in [0.5, 1)
  const std::int64_t qmax = (std::int64_t{1} << (bits - 1)) - 1;
  for (int i = 0; i < n; ++i) {
    std::int64_t q = std::llround(std::ldexp(x[i], (bits - 1) - e));
    q = std::clamp(q, -qmax, qmax);
    x[i] = std::ldexp(static_cast<double>(q), e - (bits - 1));
  }
}

}  // namespace

double CodecSpec::wire_bytes(double n_values) const {
  if (n_values <= 0.0) return 0.0;
  switch (kind) {
    case Codec::kNone:
      return 8.0 * n_values;
    case Codec::kFp32:
      return 4.0 * n_values;
    case Codec::kFrsz2: {
      const double blocks = std::ceil(n_values / kBlock);
      return 2.0 * blocks + n_values * bits / 8.0;
    }
  }
  return 8.0 * n_values;
}

void CodecSpec::roundtrip(double* x, int n) const {
  switch (kind) {
    case Codec::kNone:
      return;
    case Codec::kFp32:
      for (int i = 0; i < n; ++i) {
        // Keep non-finite payloads intact; float demotion would preserve
        // them anyway, but the intent deserves to be explicit.
        if (std::isfinite(x[i])) x[i] = static_cast<double>(static_cast<float>(x[i]));
      }
      return;
    case Codec::kFrsz2:
      for (int i0 = 0; i0 < n; i0 += kBlock)
        frsz2_block(x + i0, std::min(kBlock, n - i0), bits);
      return;
  }
}

std::string CodecSpec::to_string() const {
  switch (kind) {
    case Codec::kNone:
      return "none";
    case Codec::kFp32:
      return "fp32";
    case Codec::kFrsz2:
      return "frsz2:" + std::to_string(bits);
  }
  return "none";
}

CodecSpec parse_codec(const std::string& s) {
  CodecSpec spec;
  if (s == "none") return spec;
  if (s == "fp32") {
    spec.kind = Codec::kFp32;
    return spec;
  }
  if (s == "frsz2" || s.rfind("frsz2:", 0) == 0) {
    spec.kind = Codec::kFrsz2;
    if (s.size() > 6) {
      int bits = 0;
      try {
        bits = std::stoi(s.substr(6));
      } catch (const std::exception&) {
        throw Error("codec spec: bad frsz2 bits: " + s);
      }
      if (bits < 4 || bits > 31)
        throw Error("codec spec: frsz2 bits must be in [4, 31]: " + s);
      spec.bits = bits;
    }
    return spec;
  }
  throw Error("codec spec: unknown codec (want none|fp32|frsz2[:bits]): " + s);
}

const CodecSpec& CodecConfig::at(TrafficClass c) const {
  switch (c) {
    case TrafficClass::kHalo:
      return halo;
    case TrafficClass::kReduce:
      return reduce;
    case TrafficClass::kCkpt:
      return ckpt;
  }
  return halo;
}

CodecSpec& CodecConfig::at(TrafficClass c) {
  return const_cast<CodecSpec&>(static_cast<const CodecConfig&>(*this).at(c));
}

std::string CodecConfig::to_string() const {
  std::string out;
  const auto add = [&](const char* name, const CodecSpec& s) {
    if (!s.active()) return;
    if (!out.empty()) out += ',';
    out += name;
    out += '=';
    out += s.to_string();
  };
  add("halo", halo);
  add("reduce", reduce);
  add("ckpt", ckpt);
  return out.empty() ? "none" : out;
}

CodecConfig parse_codec_config(const std::string& spec) {
  CodecConfig cfg;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      throw Error("codec spec: want class=codec: " + entry);
    const std::string cls = entry.substr(0, eq);
    const CodecSpec s = parse_codec(entry.substr(eq + 1));
    if (cls == "halo") {
      cfg.halo = s;
    } else if (cls == "reduce") {
      cfg.reduce = s;
    } else if (cls == "ckpt") {
      if (s.kind == Codec::kFrsz2)
        throw Error(
            "codec spec: ckpt requires a lossless-restorable codec "
            "(none|fp32); frsz2 block boundaries shift on repartition");
      cfg.ckpt = s;
    } else {
      throw Error("codec spec: unknown traffic class "
                  "(want halo|reduce|ckpt): " + cls);
    }
  }
  return cfg;
}

}  // namespace cagmres::sim
