/**
 * @file
 * Validated environment-variable parsing for the SWSM_* knobs.
 *
 * Every layer that reads a SWSM_* environment variable goes through
 * these helpers instead of raw getenv/strtol: malformed values warn
 * once and fall back to the documented default instead of silently
 * parsing to garbage (strtol("x", ...) == 0) or inverting the flag
 * ("SWSM_FASTPATH=off" used to mean *on* because only the literal "0"
 * disabled it).
 *
 * The helpers live in swsm_sim, below every other layer, so the
 * machine, memory and harness layers can all share one parser.
 */

#ifndef SWSM_SIM_ENV_HH
#define SWSM_SIM_ENV_HH

#include <string_view>

namespace swsm
{

/**
 * Parse @p text as a bounded decimal integer. The whole string must be
 * a valid number (std::from_chars; no trailing junk) in
 * [@p min_value, @p max_value], otherwise @p out is untouched and the
 * result is false: a value out of range is refused, never clamped.
 */
bool parseBoundedInt(std::string_view text, int min_value, int max_value,
                     int &out);

/**
 * Read environment variable @p name as a bounded integer. Unset (or
 * empty) returns @p def unchanged; a malformed or out-of-range value
 * warns and returns @p def. @p def itself is returned verbatim, so a
 * sentinel outside [min_value, max_value] can signal "unset" to the
 * caller.
 */
int envBoundedInt(const char *name, int min_value, int max_value,
                  int def);

/**
 * Read environment variable @p name as a boolean flag. Unset or empty
 * returns @p def. "0", "false", "off" and "no" mean false; "1",
 * "true", "on" and "yes" mean true (case-sensitive, matching the
 * documented spellings). Anything else warns and returns @p def.
 */
bool envFlag(const char *name, bool def);

} // namespace swsm

#endif // SWSM_SIM_ENV_HH
