/**
 * @file
 * Strict command-line value parsers shared by every tool. A value is
 * accepted only whole and in range; anything else dies through
 * esd_fatal with the flag named, so no flag wraps, truncates, or
 * throws past main().
 */

#ifndef ESD_COMMON_CLI_HH
#define ESD_COMMON_CLI_HH

#include <cstdint>
#include <optional>
#include <string>

namespace esd
{

/** The whole of @p v as a decimal u64 (no sign, no junk). */
std::uint64_t parseU64(const std::string &flag, const std::string &v);

/** parseU64 restricted to [lo, hi]. */
std::uint64_t parseU64In(const std::string &flag, const std::string &v,
                         std::uint64_t lo, std::uint64_t hi);

/** The boolean @p v spells (0/1, true/false, yes/no, on/off), if any;
 * config files accept the same words. */
std::optional<bool> boolWord(const std::string &v);

/** boolWord, fatal when @p v is not a boolean. */
bool parseBool(const std::string &flag, const std::string &v);

} // namespace esd

#endif // ESD_COMMON_CLI_HH
