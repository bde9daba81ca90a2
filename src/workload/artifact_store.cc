#include "workload/artifact_store.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.hh"
#include "workload/artifact_io.hh"

namespace loas {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'L', 'O', 'A', 'S', 'A', 'R', 'T', '\0'};
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

/** A not-yet-renamed writer temp: "<hash>.loasart.tmp.<pid>.<n>". */
bool
isTempFile(const fs::path& path)
{
    return path.filename().string().find(
               std::string(ArtifactStore::kFileSuffix) + ".tmp.") !=
           std::string::npos;
}

/** read() exactly `size` bytes, riding out EINTR and partial reads;
 *  false on an error or on end of file before `size` bytes. */
bool
readAllFd(int fd, char* data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::read(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ArtifactStore::path(const std::string& key) const
{
    // Keys contain '#', '?', '&' and other shell-hostile characters;
    // the filename is a hash, the key itself is validated from the
    // payload on load (collisions read as rejections, not wrong data).
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(
                      artio::fnv1a(key.data(), key.size())));
    return (fs::path(dir_) / (std::string(name) + kFileSuffix))
        .string();
}

ArtifactStore::LoadResult
ArtifactStore::load(const std::string& key) const
{
    LoadResult result;
    const int fd = ::open(path(key).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return result; // plain miss: nothing stored yet
    struct FdCloser
    {
        int fd;
        ~FdCloser() { ::close(fd); }
    } closer{fd};

    const auto reject = [&result] {
        result.rejected = true;
        return result;
    };
    const auto io_reject = [&result, &reject] {
        result.io_error = true;
        return reject();
    };
    // The file exists, so an injected read fault is an EIO mid-read:
    // the same rejection (recompile-and-overwrite) path as a real one.
    if (fault::shouldFail(fault::Site::DiskRead))
        return io_reject();

    // Artifacts are published by rename, so the size fstat reports is
    // the size of the file this descriptor reads, and a shortfall is an
    // I/O failure.
    struct stat st;
    if (::fstat(fd, &st) != 0)
        return io_reject();
    if (!S_ISREG(st.st_mode))
        return reject();
    const auto file_size = static_cast<std::uint64_t>(st.st_size);
    if (file_size < kHeaderBytes)
        return reject();
    char header[kHeaderBytes];
    if (!readAllFd(fd, header, kHeaderBytes))
        return io_reject();
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        return reject();
    std::uint32_t version = 0;
    std::uint64_t checksum = 0, payload_size = 0;
    std::size_t pos = sizeof(kMagic);
    std::memcpy(&version, header + pos, sizeof(version));
    pos += sizeof(version);
    std::memcpy(&checksum, header + pos, sizeof(checksum));
    pos += sizeof(checksum);
    std::memcpy(&payload_size, header + pos, sizeof(payload_size));
    if (version != kFormatVersion ||
        payload_size != file_size - kHeaderBytes)
        return reject();

    // The payload streams straight into the layer's own arrays under a
    // running checksum; the checksum verdict comes once it is all in.
    artio::Reader reader(fd, payload_size);
    std::string stored_key;
    auto layer = std::make_shared<CompiledLayer>();
    const bool parsed = reader.str(stored_key) && stored_key == key &&
                        artio::deserializeCompiledLayer(reader, *layer);
    if (reader.ioError())
        return io_reject();
    if (!parsed || reader.checksum() != checksum)
        return reject();
    result.layer = std::move(layer);
    return result;
}

bool
ArtifactStore::store(const std::string& key,
                     const CompiledLayer& layer) const
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        return false;

    // Unique temporary, fsync, atomic rename: readers and concurrent
    // writers only ever see complete files, the last writer wins, and
    // a crash at any point can publish the old file or nothing — never
    // a torn one. Raw fds instead of ofstream because fsync needs one,
    // and because ENOSPC/short writes must be caught on *every* step:
    // write, fsync and close can each be the first to report them.
    static std::atomic<std::uint64_t> write_counter{0};
    const std::string final_path = path(key);
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(write_counter.fetch_add(1));
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    // The payload streams straight from the layer's arrays after the
    // header's place; the header (its checksum and size known only at
    // the end) is written into that place last.
    bool ok = !fault::shouldFail(fault::Site::DiskWrite) &&
              ::lseek(fd, kHeaderBytes, SEEK_SET) ==
                  static_cast<off_t>(kHeaderBytes);
    if (ok) {
        artio::Writer payload(fd);
        payload.str(key);
        ok = artio::serializeCompiledLayer(layer, payload) &&
             payload.flush();
        const std::uint32_t version = kFormatVersion;
        const std::uint64_t checksum = payload.checksum();
        const std::uint64_t payload_size = payload.size();
        char header[kHeaderBytes];
        std::size_t pos = 0;
        std::memcpy(header + pos, kMagic, sizeof(kMagic));
        pos += sizeof(kMagic);
        std::memcpy(header + pos, &version, sizeof(version));
        pos += sizeof(version);
        std::memcpy(header + pos, &checksum, sizeof(checksum));
        pos += sizeof(checksum);
        std::memcpy(header + pos, &payload_size, sizeof(payload_size));
        ok = ok && ::pwrite(fd, header, kHeaderBytes, 0) ==
                       static_cast<ssize_t>(kHeaderBytes);
    }
    ok = ok && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    if (!ok) {
        fs::remove(tmp_path, ec);
        return false;
    }
    if (fault::shouldFail(fault::Site::DiskRename)) {
        fs::remove(tmp_path, ec);
        return false;
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return false;
    }
    return true;
}

ArtifactStore::DiskStats
ArtifactStore::stats() const
{
    DiskStats stats;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        if (isTempFile(entry.path())) {
            ++stats.tmp_files;
            continue;
        }
        if (entry.path().extension() != kFileSuffix)
            continue;
        // A file may vanish between iteration and stat (concurrent
        // clear/rename); skip it rather than summing the error value.
        const std::uintmax_t size = entry.file_size(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        ++stats.files;
        stats.bytes += size;
    }
    return stats;
}

std::size_t
ArtifactStore::clear() const
{
    std::size_t removed = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        if (entry.path().extension() != kFileSuffix &&
            !isTempFile(entry.path()))
            continue;
        if (fs::remove(entry.path(), ec))
            ++removed;
    }
    return removed;
}

std::size_t
ArtifactStore::sweepStaleTemps(double max_age_seconds) const
{
    std::size_t removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    const auto max_age = std::chrono::duration_cast<
        fs::file_time_type::duration>(
        std::chrono::duration<double>(max_age_seconds));
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec) || !isTempFile(entry.path()))
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime < max_age)
            continue;
        if (fs::remove(entry.path(), ec))
            ++removed;
    }
    return removed;
}

} // namespace loas
