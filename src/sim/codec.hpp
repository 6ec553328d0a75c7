// Halo-exchange transfer codec (DESIGN.md §14): optional fp32 demotion of
// the bytes the MPK halo exchange ships. The numerics actually flow through
// the codec round trip — consumers read the demoted values, not the
// originals — so the convergence penalty of the lossy wire format is real
// and the existing health monitors / TRUE-residual oracles guard
// correctness. Only the wire image is modeled (no bit-packing happens in
// host memory); wire_bytes() prices the message and roundtrip() applies the
// exact value error.
#pragma once

#include <string>

namespace cagmres::sim {

/// Wire format of the MPK halo exchange (Machine::set_halo_codec).
enum class Codec {
  kNone,  ///< 8-byte doubles, bit-exact (the default)
  kFp32,  ///< IEEE float demotion: 2x
};

/// Bytes `n_values` doubles occupy on the wire under codec `c`.
double wire_bytes(Codec c, double n_values);

/// In-place encode+decode round trip: x[0..n) afterwards holds exactly what
/// a consumer of the coded message would decode. A pure function of the
/// input values — identical across worker counts and whichever device
/// ships the message. Non-finite values pass through unchanged so injected
/// NaN poison survives for the fault scrubs.
void roundtrip(Codec c, double* x, int n);

/// The CAGMRES_COMPRESS spelling: "none" | "halo=fp32".
std::string to_string(Codec c);

/// Parses the CAGMRES_COMPRESS syntax: comma-separated `halo=none|fp32`
/// entries (the last one wins; "" = none). Throws Error on anything else,
/// naming the removed reduce/ckpt traffic classes and the frsz2 codec when
/// an entry asks for them.
Codec parse_codec_config(const std::string& spec);

}  // namespace cagmres::sim
