/**
 * @file
 * Binary version identification.
 *
 * kEveVersion names the code generation a binary was built from, as
 * opposed to kSimulatorSalt (exp/cache.hh), which names the *timing
 * semantics* generation. The two move independently: every release
 * bumps the version; only changes that shift simulated numbers bump
 * the salt. Both are stamped into `eve_sweep --status` output so
 * that version or salt skew across a fleet of workers is diagnosable
 * before their jobs are refused.
 */

#ifndef EVE_COMMON_VERSION_HH
#define EVE_COMMON_VERSION_HH

namespace eve
{

/** Human-readable binary version; bump per release-worthy change. */
inline constexpr const char* kEveVersion = "eve-sim 0.6.0";

} // namespace eve

#endif // EVE_COMMON_VERSION_HH
