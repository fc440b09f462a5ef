// The SHA-256 compression function behind Sha256 (common/hash.h), with its
// two bodies: the portable FIPS 180-4 rounds and, on x86, the SHA
// extensions. Internal: Sha256 is the hashing API; this header exists so
// the kernel tests can run both bodies and bench_micro can name the one in
// use. Every body computes the same function, so digests do not depend on
// which one runs, but wall-clock numbers do.
#ifndef THUNDERBOLT_COMMON_SHA256_KERNELS_H_
#define THUNDERBOLT_COMMON_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace thunderbolt::sha256 {

/// Compresses `count` consecutive 64-byte message blocks starting at
/// `blocks` into the eight-word chaining `state`.
using CompressFn = void (*)(uint32_t* state, const uint8_t* blocks,
                            size_t count);

/// The portable FIPS 180-4 rounds; compiled on every target.
void CompressPortable(uint32_t* state, const uint8_t* blocks, size_t count);

/// The SHA-NI body if this is an x86 build and CPUID reports SHA, SSE4.1
/// and SSSE3; otherwise nullptr.
CompressFn ShaNiBody();

/// The body Sha256 runs: ShaNiBody() when there is one, else
/// CompressPortable. Chosen from CPUID on the first call, which is safe
/// from a static initializer.
CompressFn ChosenBody();

/// "sha-ni" or "portable", naming ChosenBody().
const char* ChosenBodyName();

}  // namespace thunderbolt::sha256

#endif  // THUNDERBOLT_COMMON_SHA256_KERNELS_H_
