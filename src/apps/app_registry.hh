/**
 * @file
 * Registry of the paper's application suite (Table 1).
 *
 * One entry per application *version* (original or restructured),
 * carrying the metadata the experiments need: the factory, the paper's
 * problem size, the per-application best SC block granularity (the
 * paper lets SC choose it), the Shasta instrumentation cost the paper
 * quotes, and the link between original and restructured versions.
 */

#ifndef SWSM_APPS_APP_REGISTRY_HH
#define SWSM_APPS_APP_REGISTRY_HH

#include <string>
#include <vector>

#include "apps/workload.hh"

namespace swsm
{

/** Metadata + factory for one application version. */
struct AppInfo
{
    std::string name;          ///< e.g. "barnes", "barnes-spatial"
    std::string paperSize;     ///< problem size quoted in the paper
    std::string defaultSize;   ///< our Small size
    bool restructured = false; ///< a restructured version?
    std::string originalOf;    ///< name of the original it restructures
    std::uint32_t scBlockBytes = 64; ///< SC best granularity (paper §2)
    int shastaInstrPct = 0;    ///< Table 1 instrumentation cost (%)
    WorkloadFactory factory;
};

/** The full suite, originals first, restructured versions after. */
const std::vector<AppInfo> &appRegistry();

/** Lookup by name; fatal on unknown names. */
const AppInfo &findApp(const std::string &name);

/** Lookup by name; null on unknown names, for input validation. */
const AppInfo *lookupApp(const std::string &name);

} // namespace swsm

#endif // SWSM_APPS_APP_REGISTRY_HH
