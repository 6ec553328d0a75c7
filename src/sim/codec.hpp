// Per-buffer transfer codec layer (DESIGN.md §14): optional compression of
// the bytes a Machine transfer ships. The numerics actually flow through the
// codec round trip — consumers read the quantized values, not the originals —
// so the convergence penalty of a lossy wire format is real and the existing
// health monitors / TRUE-residual oracles guard correctness. Only the wire
// image is modeled (no bit-packing happens in host memory); wire_bytes()
// prices the message and roundtrip() applies the exact value error.
#pragma once

#include <string>

namespace cagmres::sim {

/// Wire formats a transfer payload can be shipped in.
enum class Codec {
  kNone,   ///< 8-byte doubles, bit-exact (the default)
  kFp32,   ///< IEEE float demotion: 2x, idempotent (re-encode is lossless)
  kFrsz2,  ///< FRSZ2-style fixed-rate blocks: shared per-block exponent +
           ///< fixed-width two's-complement mantissas (Grützmacher et al.)
};

/// Traffic classes a codec is armed on independently (Machine::set_codec).
enum class TrafficClass {
  kHalo,    ///< MPK halo exchange (pack/scatter messages)
  kReduce,  ///< reduction partials and coefficient broadcasts
  kCkpt,    ///< checkpoint shards and partner mirrors (fp32 only: the saved
            ///< iterate must re-ship bit-identically on restore, which only
            ///< an idempotent per-value demotion guarantees — FRSZ2 block
            ///< boundaries shift under repartitioning)
};
inline constexpr int kTrafficClasses = 3;

/// One traffic class's codec choice.
struct CodecSpec {
  Codec kind = Codec::kNone;
  int bits = 16;                     ///< FRSZ2 mantissa width (incl. sign)
  static constexpr int kBlock = 32;  ///< FRSZ2 values per block

  bool active() const { return kind != Codec::kNone; }

  /// Bytes `n_values` doubles occupy on the wire under this codec.
  /// FRSZ2: a 2-byte exponent header per block plus bits/8 per value.
  double wire_bytes(double n_values) const;

  /// In-place encode+decode round trip: x[0..n) afterwards holds exactly
  /// what a consumer of the compressed message would decode. A pure function
  /// of the input values — identical across worker counts and whichever
  /// device ships the message. FRSZ2 blocks containing non-finite values
  /// pass through unchanged so injected NaN poison survives for the fault
  /// scrubs.
  void roundtrip(double* x, int n) const;

  std::string to_string() const;  ///< "none" | "fp32" | "frsz2:<bits>"
};

/// Parses one codec spec: "none" | "fp32" | "frsz2[:bits]". Throws Error on
/// unknown names or a bits width outside [4, 31].
CodecSpec parse_codec(const std::string& s);

/// The per-traffic-class codec table a Machine carries.
struct CodecConfig {
  CodecSpec halo;
  CodecSpec reduce;
  CodecSpec ckpt;

  const CodecSpec& at(TrafficClass c) const;
  CodecSpec& at(TrafficClass c);
  bool any_active() const {
    return halo.active() || reduce.active() || ckpt.active();
  }
  /// Active entries only, e.g. "halo=fp32,reduce=frsz2:16"; "none" if empty.
  std::string to_string() const;
};

/// Parses the CAGMRES_COMPRESS syntax: comma-separated `class=codec` entries,
/// e.g. "halo=fp32,reduce=frsz2:16,ckpt=fp32". Throws Error on unknown
/// classes/codecs and on the unrestorable ckpt=frsz2 combination.
CodecConfig parse_codec_config(const std::string& spec);

}  // namespace cagmres::sim
