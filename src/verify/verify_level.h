#ifndef NDP_VERIFY_VERIFY_LEVEL_H
#define NDP_VERIFY_VERIFY_LEVEL_H

/**
 * @file
 * The static plan-verification effort knob. `Off` records nothing and
 * costs nothing; `Cheap` runs the structural rule subset (edge
 * weights, spanning, schedule shape, liveness) straight off the
 * recorded provenance; `Full` additionally replays the reference
 * splitter, the variable2node window state, and the cross-instance
 * conflict analysis — an independent recomputation of everything the
 * planner claimed (translation validation for partition plans).
 *
 * Surfaced process-wide as the NDP_VERIFY environment variable
 * ("off" | "cheap" | "full", default off) so every harness, test, and
 * campaign can be re-run under verification without per-call wiring.
 * It is the only knob: partition::PartitionOptions reads it as its
 * default, and any other value is a fatal error.
 */

#include <cstdlib>
#include <cstring>
#include <string>

#include "support/error.h"

namespace ndp::verify {

enum class VerifyLevel
{
    Off,
    Cheap,
    Full,
};

inline const char *
toString(VerifyLevel level)
{
    switch (level) {
    case VerifyLevel::Off:
        return "off";
    case VerifyLevel::Cheap:
        return "cheap";
    case VerifyLevel::Full:
        return "full";
    }
    return "off";
}

/**
 * The NDP_VERIFY environment knob. Unset (or empty) means Off; a value
 * other than "off", "cheap" or "full" is a fatal error naming it, so a
 * typo never silently turns verification off.
 */
inline VerifyLevel
verifyLevelFromEnv()
{
    const char *text = std::getenv("NDP_VERIFY");
    if (text == nullptr || *text == '\0')
        return VerifyLevel::Off;
    for (const VerifyLevel level :
         {VerifyLevel::Off, VerifyLevel::Cheap, VerifyLevel::Full}) {
        if (std::strcmp(text, toString(level)) == 0)
            return level;
    }
    ndp::fatal(std::string("NDP_VERIFY='") + text +
               "' is not a verify level (off|cheap|full)");
}

} // namespace ndp::verify

#endif // NDP_VERIFY_VERIFY_LEVEL_H
