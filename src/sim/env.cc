#include "env.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "sim/log.hh"

namespace swsm
{

bool
parseBoundedInt(std::string_view text, int min_value, int max_value,
                int &out)
{
    int parsed = 0;
    const char *first = text.data();
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec != std::errc{} || ptr != last || parsed < min_value ||
        parsed > max_value)
        return false;
    out = parsed;
    return true;
}

int
envBoundedInt(const char *name, int min_value, int max_value, int def)
{
    const char *v = std::getenv(name);
    if (!v || *v == '\0')
        return def;
    int out = def;
    if (!parseBoundedInt(v, min_value, max_value, out)) {
        SWSM_WARN("ignoring invalid %s=\"%s\" (need an integer in "
                  "[%d, %d]); using %d",
                  name, v, min_value, max_value, def);
        return def;
    }
    return out;
}

bool
envFlag(const char *name, bool def)
{
    const char *v = std::getenv(name);
    if (!v || *v == '\0')
        return def;
    for (const char *off : {"0", "false", "off", "no"}) {
        if (std::strcmp(v, off) == 0)
            return false;
    }
    for (const char *on : {"1", "true", "on", "yes"}) {
        if (std::strcmp(v, on) == 0)
            return true;
    }
    SWSM_WARN("ignoring invalid %s=\"%s\" (need 0/1, on/off, true/false "
              "or yes/no); using %d",
              name, v, def ? 1 : 0);
    return def;
}

} // namespace swsm
