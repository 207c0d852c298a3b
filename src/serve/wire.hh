/**
 * @file
 * Wire protocol of the sweep server (serve/server.hh).
 *
 * Transport is a SOCK_STREAM AF_UNIX socket; the server is local to
 * one host. A client sends one newline-terminated request line
 *
 *   <verb> [key=value]...
 *
 * (verbs: ping, stats, run, grid, shutdown) and reads a stream of
 * newline-terminated JSON event objects back. A "report" event carries
 * a "bytes" field and is followed by exactly that many raw bytes of
 * BENCH-schema JSON document; every other event is a single line. The
 * stream ends with one terminal event ("done" after a run or grid,
 * "pong", "stats" or "bye" for the other verbs, "error" on failure)
 * and the server closes the connection.
 *
 * Keys and values must not contain spaces or newlines — every
 * parameter is a name, letter, or number, so no quoting is needed.
 */

#ifndef SWSM_SERVE_WIRE_HH
#define SWSM_SERVE_WIRE_HH

#include <map>
#include <string>
#include <string_view>

namespace swsm::wire
{

/** One parsed request line. */
struct Request
{
    std::string verb;
    std::map<std::string, std::string> params;

    /** Parameter value or @p def when absent. */
    std::string get(const std::string &key, const std::string &def = "")
        const;
};

/** Parse "verb k=v ..."; false on empty lines or bare '=' tokens. */
bool parseRequest(std::string_view line, Request &out);

/** Render a request as its wire line (no trailing newline). */
std::string formatRequest(const Request &req);

/** Default socket path: <shm dir>/swsm_serve.sock, or $SWSM_SERVE_SOCK. */
std::string defaultSockPath();

/** Bind + listen on a unix socket (unlinking a stale path); -1 on error. */
int listenUnix(const std::string &path);

/** Connect to a unix socket; -1 on error. */
int connectUnix(const std::string &path);

/** Write the whole buffer (MSG_NOSIGNAL); false on a closed peer. */
bool writeAll(int fd, std::string_view data);

/** Buffered reader for newline-framed lines plus raw byte runs. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Read up to a newline (stripped); false on EOF/error. */
    bool readLine(std::string &out);

    /** Read exactly @p n raw bytes; false on short reads. */
    bool readBytes(std::size_t n, std::string &out);

  private:
    bool fill();

    int fd_;
    std::string buf_;
};

} // namespace swsm::wire

#endif // SWSM_SERVE_WIRE_HH
