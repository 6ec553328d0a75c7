// Transfer codec layer (sim/codec.hpp, DESIGN.md §14): wire formats,
// round-trip error bounds, wire-size math, strict spec parsing (API and
// environment paths), and the Machine-side arming/charging rules.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/codec.hpp"
#include "sim/machine.hpp"

namespace cagmres {
namespace {

using sim::Codec;
using sim::CodecConfig;
using sim::CodecSpec;
using sim::TrafficClass;

CodecSpec make(Codec kind, int bits = 16) {
  CodecSpec s;
  s.kind = kind;
  s.bits = bits;
  return s;
}

TEST(CodecFp32, RoundTripWithinHalfUlpAndIdempotent) {
  const CodecSpec fp32 = make(Codec::kFp32);
  Rng rng(21);
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Mixed magnitudes: the demotion error must stay relative throughout.
    x[i] = rng.normal() * std::pow(10.0, static_cast<double>(i % 13) - 6.0);
  }
  std::vector<double> rt = x;
  fp32.roundtrip(rt.data(), static_cast<int>(rt.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    // float has a 24-bit significand: relative error <= 2^-24.
    EXPECT_LE(std::fabs(rt[i] - x[i]), std::ldexp(std::fabs(x[i]), -24))
        << "i=" << i;
  }
  // Idempotence is what makes fp32 legal for checkpoints: re-encoding an
  // already-demoted value is lossless, so save/restore/save is stable.
  std::vector<double> rt2 = rt;
  fp32.roundtrip(rt2.data(), static_cast<int>(rt2.size()));
  for (std::size_t i = 0; i < rt.size(); ++i) {
    EXPECT_EQ(rt2[i], rt[i]) << "i=" << i;
  }
}

TEST(CodecFp32, NonFinitePayloadSurvives) {
  const CodecSpec fp32 = make(Codec::kFp32);
  std::vector<double> x = {1.5, std::nan(""), 2.5,
                           std::numeric_limits<double>::infinity()};
  fp32.roundtrip(x.data(), static_cast<int>(x.size()));
  EXPECT_EQ(x[0], 1.5);
  EXPECT_TRUE(std::isnan(x[1]));
  EXPECT_EQ(x[2], 2.5);
  EXPECT_TRUE(std::isinf(x[3]));
}

TEST(CodecFrsz2, ConstantBlockIsExactWhenTheMantissaFits) {
  // A constant block anchors the grid at its own exponent, so the round
  // trip is lossless whenever the value needs at most bits-1 mantissa bits
  // — at any magnitude, including near the subnormal range.
  struct Case {
    int bits;
    double c;
  };
  const Case cases[] = {
      {4, 1.0},   {4, -0.75},        {8, -3.25},
      {8, 0.0},   {16, 96.0625},     {16, std::ldexp(-5.0, -900)},
      {31, 1.0 + 1048575.0 / 1048576.0}};
  for (const Case& t : cases) {
    const CodecSpec spec = make(Codec::kFrsz2, t.bits);
    std::vector<double> x(100, t.c);
    spec.roundtrip(x.data(), static_cast<int>(x.size()));
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i], t.c) << "bits=" << t.bits << " c=" << t.c << " i=" << i;
    }
  }
}

TEST(CodecFrsz2, ConstantBlockDecodesToAConstant) {
  // Even when the value does NOT fit the grid, a constant block decodes to
  // one shared value within the fixed-rate relative error.
  const CodecSpec spec = make(Codec::kFrsz2, 16);
  const double c = 7.5e12;  // odd part needs 33 mantissa bits
  std::vector<double> x(64, c);
  spec.roundtrip(x.data(), static_cast<int>(x.size()));
  for (std::size_t i = 1; i < x.size(); ++i) EXPECT_EQ(x[i], x[0]);
  EXPECT_NEAR(x[0], c, std::ldexp(c, 1 - 15));
}

TEST(CodecFrsz2, ErrorBoundedByBlockMaxMagnitude) {
  Rng rng(22);
  for (const int bits : {8, 16}) {
    const CodecSpec spec = make(Codec::kFrsz2, bits);
    std::vector<double> x(CodecSpec::kBlock * 4);
    for (auto& e : x) e = rng.normal();
    double amax = 0.0;
    for (const double e : x) amax = std::max(amax, std::fabs(e));
    std::vector<double> rt = x;
    spec.roundtrip(rt.data(), static_cast<int>(rt.size()));
    // The grid step within one block is 2^(e - (bits-1)) with 2^e <= 2*amax
    // (amax of the whole vector bounds every block's anchor), so rounding
    // adds at most half a step.
    const double bound = amax * std::ldexp(1.0, 1 - (bits - 1));
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(std::fabs(rt[i] - x[i]), bound) << "bits=" << bits;
    }
  }
}

TEST(CodecFrsz2, NonFiniteBlockPassesThroughOthersStillQuantize) {
  // NaN poison (fault injection) must survive the wire so the scrubbers
  // downstream still see it; only the containing block is exempted.
  const CodecSpec spec = make(Codec::kFrsz2, 8);
  std::vector<double> x(CodecSpec::kBlock * 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i);  // not on an 8-bit grid
  }
  x[3] = std::nan("");
  std::vector<double> rt = x;
  spec.roundtrip(rt.data(), static_cast<int>(rt.size()));
  EXPECT_TRUE(std::isnan(rt[3]));
  for (int i = 0; i < CodecSpec::kBlock; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(rt[static_cast<std::size_t>(i)],
              x[static_cast<std::size_t>(i)])  // poisoned block: untouched
        << "i=" << i;
  }
  bool second_block_changed = false;
  for (int i = CodecSpec::kBlock; i < 2 * CodecSpec::kBlock; ++i) {
    if (rt[static_cast<std::size_t>(i)] != x[static_cast<std::size_t>(i)]) {
      second_block_changed = true;
    }
  }
  EXPECT_TRUE(second_block_changed);
}

TEST(CodecSpecTest, WireBytesMath) {
  EXPECT_EQ(make(Codec::kNone).wire_bytes(100.0), 800.0);
  EXPECT_EQ(make(Codec::kFp32).wire_bytes(100.0), 400.0);
  // frsz2:16 over 100 values: ceil(100/32)=4 block headers of 2 bytes plus
  // 2 bytes per value.
  EXPECT_EQ(make(Codec::kFrsz2, 16).wire_bytes(100.0), 208.0);
  EXPECT_EQ(make(Codec::kFrsz2, 8).wire_bytes(32.0), 34.0);
  EXPECT_EQ(make(Codec::kFrsz2, 16).wire_bytes(0.0), 0.0);
  EXPECT_EQ(make(Codec::kFp32).wire_bytes(-5.0), 0.0);
}

TEST(CodecParse, SingleSpecs) {
  EXPECT_EQ(sim::parse_codec("none").kind, Codec::kNone);
  EXPECT_EQ(sim::parse_codec("fp32").kind, Codec::kFp32);
  const CodecSpec dflt = sim::parse_codec("frsz2");
  EXPECT_EQ(dflt.kind, Codec::kFrsz2);
  EXPECT_EQ(dflt.bits, 16);
  EXPECT_EQ(sim::parse_codec("frsz2:8").bits, 8);
  EXPECT_EQ(sim::parse_codec("frsz2:8").to_string(), "frsz2:8");
  EXPECT_THROW(sim::parse_codec("frsz2:2"), Error);
  EXPECT_THROW(sim::parse_codec("frsz2:40"), Error);
  EXPECT_THROW(sim::parse_codec("frsz2:x"), Error);
  EXPECT_THROW(sim::parse_codec("zstd"), Error);
}

TEST(CodecParse, ConfigIsStrictOnApiAndEnvironmentPaths) {
  const CodecConfig cfg =
      sim::parse_codec_config("halo=fp32,reduce=frsz2:12,ckpt=fp32");
  EXPECT_EQ(cfg.halo.kind, Codec::kFp32);
  EXPECT_EQ(cfg.reduce.kind, Codec::kFrsz2);
  EXPECT_EQ(cfg.reduce.bits, 12);
  EXPECT_EQ(cfg.ckpt.kind, Codec::kFp32);
  EXPECT_EQ(cfg.to_string(), "halo=fp32,reduce=frsz2:12,ckpt=fp32");

  EXPECT_FALSE(sim::parse_codec_config("").any_active());
  EXPECT_EQ(sim::parse_codec_config("").to_string(), "none");

  // The parser refuses garbage and the unrestorable ckpt=frsz2.
  EXPECT_THROW(sim::parse_codec_config("ckpt=frsz2"), Error);
  EXPECT_THROW(sim::parse_codec_config("dma=fp32"), Error);
  EXPECT_THROW(sim::parse_codec_config("halo"), Error);

  // So does the environment path: one bad entry rejects the whole value,
  // naming the variable, instead of silently dropping a codec.
  const auto env = [](const char* name) -> const char* {
    return std::string(name) == "CAGMRES_COMPRESS" ? "halo=fp32,dma=fp32"
                                                   : nullptr;
  };
  try {
    sim::parse_env_config(env);
    ADD_FAILURE() << "CAGMRES_COMPRESS=halo=fp32,dma=fp32 was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput);
    EXPECT_NE(std::string(e.what()).find("CAGMRES_COMPRESS"),
              std::string::npos);
  }
}

TEST(CodecMachine, SetCodecArmsAndRejectsUnrestorableCkpt) {
  sim::Machine m(1);
  m.set_codec(TrafficClass::kHalo, make(Codec::kFp32));
  EXPECT_EQ(m.codec(TrafficClass::kHalo).kind, Codec::kFp32);
  EXPECT_TRUE(m.codec_config().any_active());
  m.set_codec(TrafficClass::kCkpt, make(Codec::kFp32));  // idempotent: fine
  EXPECT_THROW(m.set_codec(TrafficClass::kCkpt, make(Codec::kFrsz2)), Error);
}

TEST(CodecMachine, ChargeCodecBillsTheDeviceOnlyWhenActive) {
  sim::Machine m(1);
  const auto codec_calls = [&] {
    return m.counters()
        .kernel_count[static_cast<std::size_t>(sim::Kernel::kCodec)];
  };
  m.charge_codec(0, make(Codec::kNone), 1000.0);
  m.sync();
  EXPECT_EQ(codec_calls(), 0);
  const double t0 = m.clock().elapsed();
  m.charge_codec(0, make(Codec::kFp32), 1000.0);
  m.sync();
  EXPECT_EQ(codec_calls(), 1);
  EXPECT_GT(m.clock().elapsed(), t0);
}

}  // namespace
}  // namespace cagmres
