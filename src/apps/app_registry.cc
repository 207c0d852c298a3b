#include "app_registry.hh"

#include <memory>

#include "apps/barnes.hh"
#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/ocean.hh"
#include "apps/radix.hh"
#include "apps/raytrace.hh"
#include "apps/volrend.hh"
#include "apps/water.hh"
#include "sim/log.hh"

namespace swsm
{

namespace
{

template <typename W, typename... Args>
WorkloadFactory
make(Args... args)
{
    return [args...](SizeClass s) {
        return std::make_unique<W>(s, args...);
    };
}

std::vector<AppInfo>
buildRegistry()
{
    std::vector<AppInfo> apps;

    // Originals (SPLASH-2 versions, paper Table 1). The instrumentation
    // cost column reproduces the Shasta costs the paper quotes.
    apps.push_back({"barnes", "16K particles", "2K particles", false, "",
                    64, 40, make<BarnesWorkload>(false)});
    apps.push_back({"fft", "1M points", "256K points", false, "", 4096,
                    29,
                    [](SizeClass s) {
                        return std::make_unique<FftWorkload>(s);
                    }});
    apps.push_back({"lu", "512x512", "384x384", false, "", 2048, 29,
                    [](SizeClass s) {
                        return std::make_unique<LuWorkload>(s);
                    }});
    apps.push_back({"ocean", "514x514", "514x514", false, "", 1024, 40,
                    make<OceanWorkload>(false)});
    apps.push_back({"radix", "1M keys", "128K keys", false, "", 64, 33,
                    make<RadixWorkload>(false)});
    apps.push_back({"raytrace", "car", "128x128, 256 spheres", false, "",
                    64, 29,
                    [](SizeClass s) {
                        return std::make_unique<RaytraceWorkload>(s);
                    }});
    apps.push_back({"volrend", "256^3 head", "64^3, 128^2 image", false, "",
                    64, 40, make<VolrendWorkload>(false)});
    apps.push_back({"water-nsq", "512 molecules", "512 molecules", false,
                    "", 64, 15, make<WaterWorkload>(false)});
    apps.push_back({"water-sp", "512 molecules", "512 molecules", false,
                    "", 64, 15, make<WaterWorkload>(true)});

    // Restructured versions (the paper's application-layer variable).
    apps.push_back({"barnes-spatial", "16K particles", "2K particles",
                    true, "barnes", 64, 40, make<BarnesWorkload>(true)});
    apps.push_back({"ocean-rowwise", "514x514", "514x514", true, "ocean",
                    1024, 40, make<OceanWorkload>(true)});
    apps.push_back({"radix-local", "1M keys", "128K keys", true, "radix",
                    64, 33, make<RadixWorkload>(true)});
    apps.push_back({"volrend-restr", "256^3 head", "64^3, 128^2 image", true,
                    "volrend", 64, 40, make<VolrendWorkload>(true)});
    return apps;
}

} // namespace

const std::vector<AppInfo> &
appRegistry()
{
    static const std::vector<AppInfo> registry = buildRegistry();
    return registry;
}

const AppInfo &
findApp(const std::string &name)
{
    if (const AppInfo *app = lookupApp(name))
        return *app;
    SWSM_FATAL("unknown application '%s'", name.c_str());
}

const AppInfo *
lookupApp(const std::string &name)
{
    for (const AppInfo &app : appRegistry()) {
        if (app.name == name)
            return &app;
    }
    return nullptr;
}

} // namespace swsm
