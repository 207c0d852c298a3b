#include "client.hh"

#include <cerrno>
#include <cstdlib>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace swsm
{

namespace
{

void
applyTimeout(int fd, int timeout_ms)
{
    if (timeout_ms <= 0)
        return;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/** Distinguish a receive deadline from the server closing on us. */
std::string
streamFailure(const ClientOptions &opts)
{
    if (opts.timeoutMs > 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return "server stalled (no data for " +
            std::to_string(opts.timeoutMs) + " ms)";
    return "connection closed mid-stream";
}

} // namespace

bool
eventField(const std::string &line, const std::string &name,
           std::uint64_t &out)
{
    const std::string needle = "\"" + name + "\":";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    const char *start = line.c_str() + pos + needle.size();
    char *end = nullptr;
    const unsigned long long v = std::strtoull(start, &end, 10);
    if (end == start)
        return false;
    out = v;
    return true;
}

bool
eventField(const std::string &line, const std::string &name,
           std::string &out)
{
    const std::string needle = "\"" + name + "\":\"";
    const std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    // Undo the writer's backslash escapes so a message that quotes the
    // offending value ("unknown app \"fftt\"") survives intact.
    std::string value;
    for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
        char c = line[i];
        if (c == '"') {
            out = std::move(value);
            return true;
        }
        if (c == '\\' && i + 1 < line.size())
            c = line[++i];
        value += c;
    }
    return false;
}

ServeResponse
serveRequest(const std::string &sock_path, const wire::Request &req,
             const std::function<void(const std::string &line)> &on_event,
             const ClientOptions &opts)
{
    ServeResponse resp;
    const int fd = wire::connectUnix(sock_path);
    if (fd < 0) {
        resp.error = "cannot connect to " + sock_path;
        return resp;
    }
    applyTimeout(fd, opts.timeoutMs);

    if (!wire::writeAll(fd, wire::formatRequest(req) + "\n")) {
        ::close(fd);
        resp.error = "request write failed";
        return resp;
    }

    wire::LineReader reader(fd);
    std::string line;
    bool sawTerminal = false;
    errno = 0;
    while (reader.readLine(line)) {
        resp.events.push_back(line);
        if (on_event)
            on_event(line);

        std::string event;
        if (!eventField(line, "event", event))
            continue;
        if (event == "report") {
            std::uint64_t bytes = 0;
            if (!eventField(line, "bytes", bytes) ||
                !reader.readBytes(bytes, resp.report)) {
                resp.error = "truncated report (" +
                    streamFailure(opts) + ")";
                ::close(fd);
                return resp;
            }
        } else if (event == "done") {
            eventField(line, "hits", resp.hits);
            eventField(line, "misses", resp.misses);
            resp.haveDone = true;
            sawTerminal = true;
            break;
        } else if (event == "error") {
            eventField(line, "message", resp.error);
            if (resp.error.empty())
                resp.error = "server error";
            ::close(fd);
            return resp;
        } else if (event == "pong" || event == "bye" ||
                   event == "stats") {
            sawTerminal = true;
            break;
        }
    }
    if (!sawTerminal)
        resp.error = streamFailure(opts);
    ::close(fd);
    if (!sawTerminal)
        return resp;
    resp.ok = true;
    return resp;
}

} // namespace swsm
