#include "serve/model_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace mcsm::serve {

namespace fs = std::filesystem;

namespace {

// Corrupt headers must fail before the payload allocation, so cap the
// declared payload size at something far beyond any real model (a 4-D
// 25-knot model is ~40 MB).
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 31;

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

// --- little-endian payload writer --------------------------------------

class ByteWriter {
public:
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.append(s);
    }
    void f64_vec(const std::vector<double>& v) {
        u64(v.size());
        for (double x : v) f64(x);
    }
    const std::string& bytes() const { return buf_; }

private:
    std::string buf_;
};

// --- bounds-checked little-endian payload reader ------------------------

class ByteReader {
public:
    explicit ByteReader(const std::string& bytes) : bytes_(&bytes) {}

    std::uint32_t u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(byte(pos_ + i)) << (8 * i);
        pos_ += 4;
        return v;
    }
    std::uint64_t u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(byte(pos_ + i)) << (8 * i);
        pos_ += 8;
        return v;
    }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str() {
        const std::uint32_t n = u32();
        need(n);
        std::string s = bytes_->substr(pos_, n);
        pos_ += n;
        return s;
    }
    std::vector<double> f64_vec() {
        const std::uint64_t n = u64();
        // Overflow-safe bound; fails before allocating from a corrupt count.
        require(n <= remaining() / 8, "model_store: truncated payload");
        std::vector<double> v(n);
        for (double& x : v) x = f64();
        return v;
    }
    bool exhausted() const { return pos_ == bytes_->size(); }

    // Checks a declared element count against the bytes actually left
    // (each element needs at least min_bytes), so corrupt counts in an
    // otherwise checksum-consistent payload fail with ModelError before
    // any allocation instead of escaping as bad_alloc/length_error.
    void check_count(std::uint64_t n, std::uint64_t min_bytes) const {
        require(n <= remaining() / min_bytes,
                "model_store: implausible element count (corrupt payload)");
    }

private:
    unsigned char byte(std::size_t i) const {
        return static_cast<unsigned char>((*bytes_)[i]);
    }
    std::uint64_t remaining() const { return bytes_->size() - pos_; }
    void need(std::uint64_t n) const {
        require(n <= remaining(), "model_store: truncated payload");
    }

    const std::string* bytes_;
    std::size_t pos_ = 0;
};

// --- envelope -----------------------------------------------------------

void write_envelope(std::ostream& os, std::uint32_t kind,
                    const std::string& payload) {
    ByteWriter header;
    header.u32(kFormatVersion);
    header.u32(kind);
    header.u64(payload.size());
    header.u64(fnv1a(payload));
    os.write(kStoreMagic, sizeof kStoreMagic);
    os.write(header.bytes().data(),
             static_cast<std::streamsize>(header.bytes().size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    require(os.good(), "model_store: write failed");
}

// Returns the verified payload bytes of a `kind` envelope.
std::string read_envelope(std::istream& is, std::uint32_t kind) {
    char magic[sizeof kStoreMagic];
    is.read(magic, sizeof magic);
    require(is.gcount() == sizeof magic &&
                std::memcmp(magic, kStoreMagic, sizeof magic) == 0,
            "model_store: bad magic (not an MCSM binary store file)");

    std::string header_bytes(24, '\0');
    is.read(header_bytes.data(), 24);
    require(is.gcount() == 24, "model_store: truncated header");
    ByteReader header(header_bytes);
    const std::uint32_t version = header.u32();
    require(version == kFormatVersion,
            "model_store: unsupported format version " +
                std::to_string(version));
    const std::uint32_t file_kind = header.u32();
    require(file_kind == kind,
            "model_store: payload kind mismatch");
    const std::uint64_t size = header.u64();
    require(size <= kMaxPayloadBytes,
            "model_store: implausible payload size (corrupt header)");
    const std::uint64_t checksum = header.u64();

    std::string payload(size, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(size));
    require(static_cast<std::uint64_t>(is.gcount()) == size,
            "model_store: truncated payload");
    require(fnv1a(payload) == checksum, "model_store: checksum mismatch");
    return payload;
}

// --- table / model payloads ---------------------------------------------

void put_table(ByteWriter& w, const lut::NdTable& table) {
    w.str(table.name());
    w.u32(static_cast<std::uint32_t>(table.rank()));
    for (const lut::Axis& ax : table.axes()) {
        w.str(ax.name());
        w.f64_vec(ax.knots());
    }
    w.f64_vec(table.values());
}

lut::NdTable get_table(ByteReader& r) {
    std::string name = r.str();
    const std::uint32_t rank = r.u32();
    r.check_count(rank, 16);  // axis = name len + knot count at minimum
    std::vector<lut::Axis> axes;
    axes.reserve(rank);
    for (std::uint32_t d = 0; d < rank; ++d) {
        std::string axis_name = r.str();
        std::vector<double> knots = r.f64_vec();
        for (std::size_t i = 0; i < knots.size(); ++i) {
            require(std::isfinite(knots[i]) &&
                        (i == 0 || knots[i] > knots[i - 1]),
                    "model_store: table '" + name + "' axis '" + axis_name +
                        "' has a non-finite or non-increasing knot at index " +
                        std::to_string(i) + " (corrupt payload)");
        }
        axes.emplace_back(std::move(axis_name), std::move(knots));
    }
    lut::NdTable table(std::move(axes), std::move(name));
    const std::vector<double> vals = r.f64_vec();
    require(vals.size() == table.value_count(),
            "model_store: value count does not match axes");
    for (std::size_t i = 0; i < vals.size(); ++i)
        require(std::isfinite(vals[i]),
                "model_store: table '" + table.name() + "' value " +
                    std::to_string(i) + " is not finite (corrupt payload)");
    std::size_t i = 0;
    table.for_each_grid_point([&](std::span<const std::size_t>,
                                  std::span<const double>, double& slot) {
        slot = vals[i++];
    });
    return table;
}

void put_str_vec(ByteWriter& w, const std::vector<std::string>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const std::string& s : v) w.str(s);
}

std::vector<std::string> get_str_vec(ByteReader& r) {
    const std::uint32_t n = r.u32();
    r.check_count(n, 4);  // every string carries a u32 length prefix
    std::vector<std::string> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(r.str());
    return v;
}

// No reserve: n is a product of parsed counts (pins x internals) and could
// be implausibly large in a corrupt payload; get_table hits a truncation
// ModelError within a few reads instead.
void get_tables(ByteReader& r, std::size_t n,
                std::vector<lut::NdTable>& out) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(get_table(r));
}

}  // namespace

void write_model_binary(std::ostream& os, const core::CsmModel& model) {
    model.check_consistent();
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(model.kind));
    w.str(model.cell_name);
    w.f64(model.vdd);
    w.f64(model.dv_margin);
    w.f64(model.temp_c);
    put_str_vec(w, model.pins);
    put_str_vec(w, model.fixed_pins);
    w.f64_vec(model.fixed_values);
    put_str_vec(w, model.internals);
    put_table(w, model.i_out);
    for (const auto& t : model.i_internal) put_table(w, t);
    for (const auto& t : model.c_miller) put_table(w, t);
    put_table(w, model.c_out);
    for (const auto& t : model.c_internal) put_table(w, t);
    for (const auto& t : model.c_miller_internal) put_table(w, t);
    for (const auto& t : model.c_in) put_table(w, t);
    write_envelope(os, kModelKind, w.bytes());
}

core::CsmModel read_model_binary(std::istream& is) {
    const std::string payload = read_envelope(is, kModelKind);
    ByteReader r(payload);

    core::CsmModel m;
    const std::uint32_t kind = r.u32();
    require(kind <= static_cast<std::uint32_t>(core::ModelKind::kMcsm),
            "model_store: unknown model kind");
    m.kind = static_cast<core::ModelKind>(kind);
    m.cell_name = r.str();
    m.vdd = r.f64();
    m.dv_margin = r.f64();
    m.temp_c = r.f64();
    require(std::isfinite(m.vdd) && m.vdd > 0.0,
            "model_store: vdd = " + std::to_string(m.vdd) +
                " (must be finite and > 0)");
    require(std::isfinite(m.dv_margin) && m.dv_margin >= 0.0,
            "model_store: dv_margin = " + std::to_string(m.dv_margin) +
                " (must be finite and >= 0)");
    require(std::isfinite(m.temp_c), "model_store: non-finite temp_c");
    m.pins = get_str_vec(r);
    m.fixed_pins = get_str_vec(r);
    m.fixed_values = r.f64_vec();
    m.internals = get_str_vec(r);
    require(m.fixed_pins.size() == m.fixed_values.size(),
            "model_store: fixed pin/value count mismatch");

    m.i_out = get_table(r);
    get_tables(r, m.internals.size(), m.i_internal);
    get_tables(r, m.pins.size(), m.c_miller);
    m.c_out = get_table(r);
    get_tables(r, m.internals.size(), m.c_internal);
    get_tables(r, m.pins.size() * m.internals.size(), m.c_miller_internal);
    get_tables(r, m.pins.size(), m.c_in);
    require(r.exhausted(), "model_store: trailing bytes after model");
    m.check_consistent();
    return m;
}

void write_surface_binary(std::ostream& os, const ArcSurfaceData& surface) {
    require(!surface.arc_id.empty(), "write_surface_binary: empty arc id");
    require(surface.delay.rank() == surface.slew.rank(),
            "write_surface_binary: delay/slew rank mismatch");
    ByteWriter w;
    w.str(surface.arc_id);
    w.f64(surface.dt);
    w.f64(surface.settle);
    w.u64(surface.model_check);
    put_table(w, surface.delay);
    put_table(w, surface.slew);
    write_envelope(os, kSurfaceKind, w.bytes());
}

ArcSurfaceData read_surface_binary(std::istream& is) {
    const std::string payload = read_envelope(is, kSurfaceKind);
    ByteReader r(payload);
    ArcSurfaceData s;
    s.arc_id = r.str();
    s.dt = r.f64();
    s.settle = r.f64();
    s.model_check = r.u64();
    s.delay = get_table(r);
    s.slew = get_table(r);
    require(r.exhausted(), "model_store: trailing bytes after surface");
    require(!s.arc_id.empty() && std::isfinite(s.dt) && s.dt > 0.0 &&
                std::isfinite(s.settle) && s.settle > 0.0,
            "model_store: implausible surface parameters");
    require(s.delay.rank() == s.slew.rank(),
            "model_store: surface delay/slew rank mismatch");
    return s;
}

std::uint64_t model_checksum(const core::CsmModel& model) {
    std::ostringstream os;
    write_model_binary(os, model);
    return fnv1a(os.str());
}

namespace {

// Unique same-process temp name next to `path`; concurrent writers of the
// same key each publish a complete file and the last rename wins.
std::string temp_name(const std::string& path) {
    static std::atomic<unsigned> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter++);
}

[[noreturn]] void fail_errno(const std::string& what) {
    throw ModelError("model_store: " + what + " (" +
                     std::strerror(errno) + ")");
}

// write(2) the whole buffer, riding out short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_errno("write failed for " + path);
        }
        done += static_cast<std::size_t>(n);
    }
}

// Opens, fully writes, fsyncs and closes a fresh temp file. Throws with
// the temp removed on any failure.
void write_temp_durably(const std::string& tmp, const std::string& bytes) {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                          0644);
    if (fd < 0) fail_errno("cannot open " + tmp);
    try {
        write_all(fd, bytes.data(), bytes.size(), tmp);
        // fsync BEFORE rename: rename is a metadata operation that can be
        // journaled ahead of the data blocks, so without this a crash
        // after publication could surface an empty/truncated file under
        // the final name -- the exact outage the atomic write exists to
        // prevent.
        if (::fsync(fd) != 0) fail_errno("fsync failed for " + tmp);
        if (::close(fd) != 0) fail_errno("close failed for " + tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
}

// fsync the directory containing `path`, so the rename itself (a directory
// entry update) is on disk before the writer reports success.
void fsync_parent_dir(const std::string& path) {
    const fs::path parent = fs::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) fail_errno("cannot open directory " + dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) fail_errno("fsync failed for directory " + dir);
}

}  // namespace

void durable_replace_file(const std::string& tmp, const std::string& path) {
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (errno != EXDEV) {
            const int saved = errno;
            ::unlink(tmp.c_str());
            errno = saved;
            fail_errno("rename failed for " + path);
        }
        // Temp on a different filesystem (e.g. a tmpfs staging dir):
        // rename(2) cannot cross the boundary, so re-stage the bytes in a
        // same-directory temp and publish that one atomically instead.
        std::string bytes;
        {
            std::ifstream is(tmp, std::ios::binary);
            std::ostringstream copy;
            copy << is.rdbuf();
            if (!is.good() && !is.eof()) {
                ::unlink(tmp.c_str());
                throw ModelError("model_store: cannot re-read " + tmp +
                                 " for cross-filesystem publish");
            }
            bytes = std::move(copy).str();
        }
        ::unlink(tmp.c_str());
        const std::string local = temp_name(path);
        write_temp_durably(local, bytes);
        if (::rename(local.c_str(), path.c_str()) != 0) {
            const int saved = errno;
            ::unlink(local.c_str());
            errno = saved;
            fail_errno("rename failed for " + path);
        }
        fsync_parent_dir(path);
        return;
    }
    fsync_parent_dir(path);
}

void save_bytes_atomically(const std::string& path,
                           const std::string& bytes) {
    const std::string tmp = temp_name(path);
    write_temp_durably(tmp, bytes);
    durable_replace_file(tmp, path);
}

std::size_t clean_orphan_temps(const std::string& dir, long min_age_s) {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return 0;
    const auto now = std::chrono::file_clock::now();
    std::size_t removed = 0;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir, ec)) {
        if (ec) break;
        std::error_code entry_ec;
        if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") == std::string::npos) continue;
        const auto mtime = fs::last_write_time(entry.path(), entry_ec);
        if (entry_ec) continue;
        const auto age =
            std::chrono::duration_cast<std::chrono::seconds>(now - mtime);
        if (age.count() < min_age_s) continue;
        if (fs::remove(entry.path(), entry_ec) && !entry_ec) ++removed;
    }
    return removed;
}

namespace {

// Serialize-then-publish: the payload is rendered in memory first so the
// temp file is written in one pass and can be fsync'd before rename --
// see the durability contract in the header.
void save_atomically(const std::string& path,
                     const std::function<void(std::ostream&)>& write) {
    std::ostringstream os;
    write(os);
    require(os.good(), "model_store: serialization failed for " + path);
    save_bytes_atomically(path, std::move(os).str());
}

}  // namespace

void save_model_binary(const std::string& path,
                       const core::CsmModel& model) {
    save_atomically(path,
                    [&](std::ostream& os) { write_model_binary(os, model); });
}

core::CsmModel load_model_binary(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    require(is.good(), "load_model_binary: cannot open " + path);
    return read_model_binary(is);
}

void save_surface_binary(const std::string& path,
                         const ArcSurfaceData& surface) {
    save_atomically(
        path, [&](std::ostream& os) { write_surface_binary(os, surface); });
}

ArcSurfaceData load_surface_binary(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    require(is.good(), "load_surface_binary: cannot open " + path);
    return read_surface_binary(is);
}

}  // namespace mcsm::serve
