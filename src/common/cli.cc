#include "common/cli.hh"

#include <charconv>

#include "common/logging.hh"

namespace esd
{

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    std::uint64_t out = 0;
    const char *end = v.data() + v.size();
    auto [p, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || p != end)
        esd_fatal("%s: '%s' is not an unsigned integer", flag.c_str(),
                  v.c_str());
    return out;
}

std::uint64_t
parseU64In(const std::string &flag, const std::string &v,
           std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t u = parseU64(flag, v);
    if (u < lo || u > hi)
        esd_fatal("%s: %llu out of range [%llu, %llu]", flag.c_str(),
                  static_cast<unsigned long long>(u),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return u;
}

std::optional<bool>
boolWord(const std::string &v)
{
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    return std::nullopt;
}

bool
parseBool(const std::string &flag, const std::string &v)
{
    std::optional<bool> b = boolWord(v);
    if (!b)
        esd_fatal("%s: '%s' is not a boolean (use 0/1/true/false/"
                  "yes/no/on/off)", flag.c_str(), v.c_str());
    return *b;
}

} // namespace esd
