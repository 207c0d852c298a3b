#include "wire.hh"

#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/shm_cache.hh"
#include "sim/log.hh"

namespace swsm::wire
{

std::string
Request::get(const std::string &key, const std::string &def) const
{
    const auto it = params.find(key);
    return it == params.end() ? def : it->second;
}

bool
parseRequest(std::string_view line, Request &out)
{
    Request req;
    std::size_t pos = 0;
    while (pos < line.size()) {
        std::size_t end = line.find(' ', pos);
        if (end == std::string_view::npos)
            end = line.size();
        const std::string_view tok = line.substr(pos, end - pos);
        pos = end + 1;
        if (tok.empty())
            continue;
        if (req.verb.empty()) {
            if (tok.find('=') != std::string_view::npos)
                return false;
            req.verb = tok;
            continue;
        }
        const std::size_t eq = tok.find('=');
        if (eq == 0 || eq == std::string_view::npos)
            return false;
        req.params[std::string(tok.substr(0, eq))] =
            std::string(tok.substr(eq + 1));
    }
    if (req.verb.empty())
        return false;
    out = std::move(req);
    return true;
}

std::string
formatRequest(const Request &req)
{
    std::string line = req.verb;
    for (const auto &[k, v] : req.params) {
        line += ' ';
        line += k;
        line += '=';
        line += v;
    }
    return line;
}

std::string
defaultSockPath()
{
    if (const char *path = std::getenv("SWSM_SERVE_SOCK"))
        return path;
    return ShmCache::defaultDir() + "/swsm_serve.sock";
}

int
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        SWSM_WARN("socket path too long: %s", path.c_str());
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
writeAll(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
LineReader::fill()
{
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0)
        return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
}

bool
LineReader::readLine(std::string &out)
{
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (!fill())
            return false;
    }
}

bool
LineReader::readBytes(std::size_t n, std::string &out)
{
    while (buf_.size() < n) {
        if (!fill())
            return false;
    }
    out = buf_.substr(0, n);
    buf_.erase(0, n);
    return true;
}

} // namespace swsm::wire
