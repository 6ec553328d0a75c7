// Halo transfer codec (sim/codec.hpp, DESIGN.md §14): the fp32 wire
// format's round-trip error bound, wire-size math, strict spec parsing (API
// and environment paths), and the Machine-side arming/charging rules.
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/codec.hpp"
#include "sim/machine.hpp"

namespace cagmres {
namespace {

using sim::Codec;

TEST(CodecFp32, RoundTripWithinHalfUlpAndIdempotent) {
  Rng rng(21);
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Mixed magnitudes: the demotion error must stay relative throughout.
    x[i] = rng.normal() * std::pow(10.0, static_cast<double>(i % 13) - 6.0);
  }
  std::vector<double> rt = x;
  sim::roundtrip(Codec::kFp32, rt.data(), static_cast<int>(rt.size()));
  for (std::size_t i = 0; i < x.size(); ++i) {
    // float has a 24-bit significand: relative error <= 2^-24.
    EXPECT_LE(std::fabs(rt[i] - x[i]), std::ldexp(std::fabs(x[i]), -24))
        << "i=" << i;
  }
  // Re-encoding an already-demoted value is lossless.
  std::vector<double> rt2 = rt;
  sim::roundtrip(Codec::kFp32, rt2.data(), static_cast<int>(rt2.size()));
  for (std::size_t i = 0; i < rt.size(); ++i) {
    EXPECT_EQ(rt2[i], rt[i]) << "i=" << i;
  }
}

TEST(CodecFp32, NonFinitePayloadSurvives) {
  std::vector<double> x = {1.5, std::nan(""), 2.5,
                           std::numeric_limits<double>::infinity()};
  sim::roundtrip(Codec::kFp32, x.data(), static_cast<int>(x.size()));
  EXPECT_EQ(x[0], 1.5);
  EXPECT_TRUE(std::isnan(x[1]));
  EXPECT_EQ(x[2], 2.5);
  EXPECT_TRUE(std::isinf(x[3]));
}

TEST(CodecSpecTest, WireBytesMath) {
  EXPECT_EQ(sim::wire_bytes(Codec::kNone, 100.0), 800.0);
  EXPECT_EQ(sim::wire_bytes(Codec::kFp32, 100.0), 400.0);
  EXPECT_EQ(sim::wire_bytes(Codec::kNone, 0.0), 0.0);
  EXPECT_EQ(sim::wire_bytes(Codec::kFp32, -5.0), 0.0);
}

TEST(CodecParse, SingleSpecs) {
  EXPECT_EQ(sim::parse_codec_config("halo=none"), Codec::kNone);
  EXPECT_EQ(sim::parse_codec_config("halo=fp32"), Codec::kFp32);
  EXPECT_EQ(sim::parse_codec_config("halo=fp32,halo=none"), Codec::kNone);
  EXPECT_EQ(sim::to_string(Codec::kNone), "none");
  EXPECT_EQ(sim::to_string(Codec::kFp32), "halo=fp32");
  EXPECT_THROW(sim::parse_codec_config("halo=zstd"), Error);
  EXPECT_THROW(sim::parse_codec_config("halo=fp64"), Error);
}

TEST(CodecParse, ConfigIsStrictOnApiAndEnvironmentPaths) {
  EXPECT_EQ(sim::parse_codec_config(""), Codec::kNone);
  EXPECT_EQ(sim::parse_codec_config("halo=fp32"), Codec::kFp32);

  // The parser refuses garbage.
  EXPECT_THROW(sim::parse_codec_config("dma=fp32"), Error);
  EXPECT_THROW(sim::parse_codec_config("halo"), Error);

  // The removed traffic classes and codec are refused by name, alone or
  // next to a valid halo entry.
  const std::pair<const char*, const char*> removed[] = {
      {"reduce=fp32", "reduce"},
      {"halo=fp32,reduce=fp32", "reduce"},
      {"ckpt=fp32", "ckpt"},
      {"halo=fp32,reduce=fp32,ckpt=fp32", "reduce"},
      {"halo=frsz2", "frsz2"},
      {"halo=frsz2:16", "frsz2"},
      {"ckpt=frsz2", "ckpt"},
  };
  for (const auto& [spec, name] : removed) {
    try {
      sim::parse_codec_config(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << spec << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
          << spec << ": " << e.what();
    }
  }

  // So does the environment path: one bad entry rejects the whole value,
  // naming the variable (and the removed entry), instead of silently
  // dropping a codec.
  for (const char* value : {"halo=fp32,dma=fp32", "halo=fp32,reduce=fp32",
                            "halo=frsz2:16"}) {
    const auto env = [value](const char* name) -> const char* {
      return std::string(name) == "CAGMRES_COMPRESS" ? value : nullptr;
    };
    try {
      sim::parse_env_config(env);
      ADD_FAILURE() << "CAGMRES_COMPRESS=" << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput);
      EXPECT_NE(std::string(e.what()).find("CAGMRES_COMPRESS"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
  }
}

TEST(CodecMachine, ChargeCodecBillsTheDeviceOnlyWhenActive) {
  sim::Machine m(1);
  const auto codec_calls = [&] {
    return m.counters()
        .kernel_count[static_cast<std::size_t>(sim::Kernel::kCodec)];
  };
  m.set_halo_codec(Codec::kNone);
  m.charge_codec(0, 1000.0);
  m.sync();
  EXPECT_EQ(codec_calls(), 0);
  const double t0 = m.clock().elapsed();
  m.set_halo_codec(Codec::kFp32);
  EXPECT_EQ(m.halo_codec(), Codec::kFp32);
  m.charge_codec(0, 1000.0);
  m.sync();
  EXPECT_EQ(codec_calls(), 1);
  EXPECT_GT(m.clock().elapsed(), t0);
}

}  // namespace
}  // namespace cagmres
