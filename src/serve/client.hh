/**
 * @file
 * Client side of the sweep server protocol (serve/wire.hh): connect,
 * send one request, stream the response. Shared by the swsm_query CLI
 * and the server lifecycle tests.
 */

#ifndef SWSM_SERVE_CLIENT_HH
#define SWSM_SERVE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/wire.hh"

namespace swsm
{

/** One fully-read server response. */
struct ServeResponse
{
    /** Transport and protocol success (an "error" event clears it). */
    bool ok = false;
    /** Message of the error event (or a transport description). */
    std::string error;
    /** Every event line received, in order (report bytes excluded). */
    std::vector<std::string> events;
    /** The BENCH document of the report event, when one arrived. */
    std::string report;
    /** Parsed from the done event (request-local cache traffic). */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    bool haveDone = false;
};

/**
 * Transport knobs. The default blocks forever; swsm_query exposes the
 * deadline as --timeout so a wedged server produces a diagnostic
 * instead of a hang. A connect to an absent server always fails fast.
 */
struct ClientOptions
{
    /**
     * Per-I/O deadline in milliseconds (SO_RCVTIMEO/SO_SNDTIMEO);
     * 0 = wait forever. This bounds each read of the event stream,
     * not the whole request — a grid that streams a result every few
     * seconds keeps resetting it.
     */
    int timeoutMs = 0;
};

/**
 * Send @p req to the server at @p sock_path and read the response to
 * completion. @p on_event (optional) sees each event line as it
 * arrives — progress streaming for the CLI.
 */
ServeResponse serveRequest(
    const std::string &sock_path, const wire::Request &req,
    const std::function<void(const std::string &line)> &on_event = {},
    const ClientOptions &opts = {});

/** Extract an unsigned JSON field ("name":123) from an event line. */
bool eventField(const std::string &line, const std::string &name,
                std::uint64_t &out);

/**
 * Extract a string JSON field ("name":"value") from an event line;
 * escaped quotes and backslashes inside the value are unescaped.
 */
bool eventField(const std::string &line, const std::string &name,
                std::string &out);

} // namespace swsm

#endif // SWSM_SERVE_CLIENT_HH
