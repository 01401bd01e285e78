#include "common/fs.hh"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"

namespace eve
{

namespace
{

std::string
dirOf(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

bool
fsyncPath(const std::string& path, bool directory, std::string* err)
{
    const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        // Some filesystems refuse O_DIRECTORY opens; a failed
        // directory fsync weakens durability, not atomicity.
        if (directory)
            return true;
        if (err)
            *err = path + ": open for fsync: " + std::strerror(errno);
        return false;
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0 && !directory) {
        if (err)
            *err = path + ": fsync: " + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace

bool
tryAtomicWriteFile(const std::string& path, const std::string& content,
                   std::string* err)
{
    // One name per write, not per process: two threads writing one
    // path must not share (and rename away) each other's temp file.
    static std::atomic<std::uint64_t> writes{0};
    const std::string tmp = path + "." + std::to_string(::getpid()) +
                            "." + std::to_string(writes++) + kTmpSuffix;
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (err)
            *err = tmp + ": open: " + std::strerror(errno);
        return false;
    }
    std::size_t off = 0;
    while (off < content.size()) {
        const ssize_t n =
            ::write(fd, content.data() + off, content.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = tmp + ": write: " + std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        if (err)
            *err = tmp + ": fsync: " + std::strerror(errno);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        if (err)
            *err = tmp + ": close: " + std::strerror(errno);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (err)
            *err = path + ": rename: " + std::strerror(errno);
        ::unlink(tmp.c_str());
        return false;
    }
    return fsyncPath(dirOf(path), /*directory=*/true, err);
}

void
atomicWriteFile(const std::string& path, const std::string& content)
{
    std::string err;
    if (!tryAtomicWriteFile(path, content, &err))
        fatal("atomic write of '%s' failed: %s", path.c_str(),
              err.c_str());
}

bool
renameFile(const std::string& from, const std::string& to)
{
    if (::rename(from.c_str(), to.c_str()) == 0)
        return true;
    if (errno != ENOENT)
        warn("rename '%s' -> '%s': %s", from.c_str(), to.c_str(),
             std::strerror(errno));
    return false;
}

bool
createExclusive(const std::string& path, const std::string& content)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        if (errno != EEXIST)
            warn("create '%s': %s", path.c_str(), std::strerror(errno));
        return false;
    }
    std::size_t off = 0;
    while (off < content.size()) {
        const ssize_t n =
            ::write(fd, content.data() + off, content.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            warn("write '%s': %s", path.c_str(), std::strerror(errno));
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
}

void
removeFile(const std::string& path)
{
    if (::unlink(path.c_str()) != 0 && errno != ENOENT)
        warn("remove '%s': %s", path.c_str(), std::strerror(errno));
}

bool
fileExists(const std::string& path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    if (in.bad())
        return false;
    out = os.str();
    return true;
}

void
makeDirs(const std::string& dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create directory '%s': %s", dir.c_str(),
              ec.message().c_str());
}

FileLock::FileLock(const std::string& path)
{
    fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) {
        warn("file lock '%s': open: %s (proceeding unlocked)",
             path.c_str(), std::strerror(errno));
        return;
    }
    while (::flock(fd, LOCK_EX) != 0) {
        if (errno == EINTR)
            continue;
        warn("file lock '%s': flock: %s (proceeding unlocked)",
             path.c_str(), std::strerror(errno));
        ::close(fd);
        fd = -1;
        return;
    }
}

FileLock::~FileLock()
{
    if (fd >= 0) {
        ::flock(fd, LOCK_UN);
        ::close(fd);
    }
}

} // namespace eve
