/**
 * @file
 * The join-kernel instruction set, picked once per process.
 *
 * Every join scans its two bitmasks with one inline scalar skip-scan
 * (common/bitutil.hh): one AND per stored word, hopping over zero-AND
 * words. The one vector path is the fused temporal join's per-match
 * fan-out (core/fused_join.cc): with T <= 8 on AVX2, the T
 * accumulators live in vector lanes and each match lands as one
 * masked lane-add keyed by its packed temporal word. Everywhere else,
 * and at every ISA for T > 8, the scalar fused kernels run; they stay
 * the reference.
 *
 * Bit-identity contract: the AVX2 kernels may only reorder *exact
 * integer* additions across accumulator lanes. Each lane still
 * receives the same multiset of adds in the original match order,
 * and two's-complement addition has no reassociation hazard. So the
 * ISA can never change a RunResult. tests/test_kernel_dispatch.cc and
 * the golden identity matrix enforce this at every supported ISA.
 *
 * Resolution is a function-local static (cpuid at first use,
 * overridable with `--isa` or `$LOAS_ISA`): no allocation and no
 * locks after first use.
 */

#pragma once

#include <string>

namespace loas {
namespace kernels {

/** Instruction sets the fused join can select, weakest first. */
enum class Isa : int
{
    Scalar = 0, ///< Portable 64-bit words; the reference path.
    Avx2 = 1,   ///< Fused fan-out/collapse accumulators in ymm lanes.
};

/** The spec-string name of `isa` ("scalar", "avx2"). */
const char* isaName(Isa isa);

/** True when the running CPU can execute `isa`'s kernels. */
bool isaSupported(Isa isa);

/** The strongest ISA the running CPU supports. */
Isa bestSupportedIsa();

/**
 * The ISA in effect: the first call resolves `$LOAS_ISA` if set
 * (fatal on an unknown or unsupported name), else
 * bestSupportedIsa(), and later calls return the same choice unless
 * setIsa() intervenes.
 */
Isa resolvedIsa();

/**
 * Override the resolved ISA (CLI `--isa`, tests). Fatal when the
 * running CPU does not support `isa`. Not thread-safe against
 * concurrent joins: select before executing, as the CLI does.
 */
void setIsa(Isa isa);

/**
 * Parse "scalar" / "avx2" (as in `--isa` and `$LOAS_ISA`). Returns
 * false on an unknown name.
 */
bool parseIsa(const std::string& name, Isa* out);

} // namespace kernels
} // namespace loas
