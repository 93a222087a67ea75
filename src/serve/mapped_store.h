// mmap-able zero-parse model/surface pack -- format v3 of the binary
// store family. Together with the per-file MCSMBIN1 v2 store it feeds (see
// model_store.h, which streams one payload per file through a
// parse-and-copy reader, and whose model envelope the pack embeds) it is
// the only model format any program reads.
//
// A pack bundles any number of characterized models and serve-layer arc
// surfaces into ONE file laid out for mmap(2):
//   * page-aligned sections, so section starts never share a page and the
//     kernel can fault exactly what a query touches;
//   * every numeric array stored as naturally-aligned little-endian
//     doubles, referenced by offset instead of being inlined behind
//     variable-length headers -- a mapped surface is served through
//     lut::TableView spans pointing STRAIGHT INTO THE MAPPING, no decode,
//     no allocation, no per-process copy of the knot/value data;
//   * one FNV-1a checksum over the body, verified ONCE at map time (plus
//     rigorous bounds/monotonicity validation of every directory entry),
//     after which lookups trust the mapping.
// N server processes mapping the same pack therefore share a single kernel
// page cache copy of every model -- the "many processes, one page cache"
// serving tier of ROADMAP item 1.
//
// Layout (all offsets from file start, little-endian; doubles 8-aligned):
//   header   page 0: magic "MCSMMAP3", version u32(=3), reserved u32,
//            file_size u64, entry_count u64, dir_offset u64,
//            body_offset u64, payload_check u64 (FNV-1a over
//            [body_offset, file_size)), header_check u64 (FNV-1a over the
//            preceding header bytes)
//   body     per-entry payloads, each page-aligned:
//            model payload   = the complete v2 model envelope bytes
//                              (write_model_binary), so the directory
//                              checksum doubles as model_checksum()
//            surface payload = arc_id (len-prefixed, 8-padded), dt f64,
//                              settle f64, model_check u64, then delay and
//                              slew tables: name (len-prefixed, 8-padded),
//                              rank u64, per axis {name, knot_count u64,
//                              knots f64[]}, value_count u64, values f64[]
//   dir      entry records {kind u32, name_len u32, name_off u64,
//            payload_off u64, payload_size u64, content_check u64}
//            followed by the name blob
//
// Hot reload: PackHost re-stats the pack path and swaps in a fresh mapping
// (atomic shared_ptr swap under a mutex, generation bump); queries already
// holding the old MappedPack via shared_ptr keep serving off the retired
// mapping until the last reference drops, which munmaps it -- reload never
// invalidates an in-flight batch.
#ifndef MCSM_SERVE_MAPPED_STORE_H
#define MCSM_SERVE_MAPPED_STORE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "core/model.h"
#include "lut/table_view.h"
#include "serve/model_store.h"

namespace mcsm::serve {

inline constexpr char kPackMagic[8] = {'M', 'C', 'S', 'M',
                                       'M', 'A', 'P', '3'};
inline constexpr std::uint32_t kPackFormatVersion = 3;
inline constexpr const char* kPackExt = ".mcsmpack";

// A surface resolved inside a mapping: evaluation parameters plus
// TableViews whose spans point into the mapped bytes. Valid only while the
// owning MappedPack is alive (pin it with the shared_ptr you got it from).
struct MappedSurface {
    std::string_view arc_id;
    double dt = 0.0;
    double settle = 0.0;
    std::uint64_t model_check = 0;
    lut::TableView delay;
    lut::TableView slew;
};

// Accumulates models/surfaces and writes them as one pack file, durably
// and atomically (same fsync + rename contract as the per-file store).
class PackWriter {
public:
    // Entry names are lookup keys: ModelKey::to_string() for models,
    // TimingService arc ids for surfaces. Duplicate names throw.
    void add_model(const std::string& name, const core::CsmModel& model);
    void add_surface(const std::string& name, const ArcSurfaceData& surface);

    std::size_t entry_count() const { return entries_.size(); }

    void write(const std::string& path) const;

private:
    struct Entry {
        std::uint32_t kind = 0;
        std::string name;
        std::string payload;  // already in the mapped layout
    };
    std::vector<Entry> entries_;
    std::unordered_map<std::string, std::size_t> by_name_;

    void add(std::uint32_t kind, const std::string& name,
             std::string payload);
};

// Builds a pack from the per-file binary store: every *.csm.bin under
// model_dir (keyed by file stem) and every *.surf.bin under surface_dir
// (keyed by the surface's own arc_id). Either directory may be empty ("").
// Corrupt files throw -- a pack is built from a verified store or not at
// all.
PackWriter pack_from_dirs(const std::string& model_dir,
                          const std::string& surface_dir);

// One immutable read-only mapping of a pack file. Construction mmaps the
// file, verifies the checksum and validates every entry's bounds (and
// every surface axis' monotonicity); after that, surface lookups are
// pointer handouts. Thread-safe for concurrent readers.
class MappedPack {
public:
    // Identity of the mapped file, used by PackHost to detect changes.
    struct FileId {
        std::uint64_t dev = 0;
        std::uint64_t ino = 0;
        std::uint64_t size = 0;
        std::int64_t mtime_ns = 0;
        bool operator==(const FileId&) const = default;
    };

    static std::shared_ptr<const MappedPack> map(const std::string& path);
    ~MappedPack();

    MappedPack(const MappedPack&) = delete;
    MappedPack& operator=(const MappedPack&) = delete;

    const std::string& path() const { return path_; }
    const FileId& id() const { return id_; }
    std::size_t model_count() const { return models_.size(); }
    std::size_t surface_count() const { return surfaces_.size(); }

    // nullptr when absent. The views borrow the mapping: keep the
    // shared_ptr alive while using the result.
    const MappedSurface* find_surface(const std::string& name) const;

    // Content identity (FNV-1a of the v2 model envelope bytes, i.e.
    // model_checksum()) of a packed model; 0 when absent.
    std::uint64_t model_check(const std::string& name) const;

    // Parses a packed model into an owned CsmModel (the exact path needs
    // real tables); throws ModelError when absent or inconsistent.
    core::CsmModel materialize_model(const std::string& name) const;

    std::vector<std::string> model_names() const;
    std::vector<std::string> surface_names() const;

private:
    MappedPack() = default;

    struct ModelEntry {
        const char* payload = nullptr;
        std::uint64_t size = 0;
        std::uint64_t check = 0;
    };

    std::string path_;
    FileId id_;
    const unsigned char* base_ = nullptr;
    std::size_t size_ = 0;
    std::unordered_map<std::string, MappedSurface> surfaces_;
    std::unordered_map<std::string, ModelEntry> models_;
};

// Shared, hot-reloadable handle on a pack path. current() hands out the
// active mapping; refresh() re-stats the file and atomically swaps in a
// new mapping when the file changed (rename-published by PackWriter, so a
// change is always a whole new inode). Old mappings retire via shared_ptr
// refcount once their last in-flight reader drops them.
class PackHost {
public:
    // Maps eagerly; throws ModelError when the pack is missing/corrupt.
    explicit PackHost(std::string path);

    const std::string& path() const { return path_; }

    std::shared_ptr<const MappedPack> current() const;

    // Returns true when a new mapping was swapped in. A vanished or
    // corrupt replacement file leaves the current mapping serving (and
    // returns false): a botched deploy must not take the server down.
    bool refresh();

    // Bumps on every successful swap; serves as the cache-epoch component
    // of surface keys in TimingService.
    std::uint64_t generation() const {
        return generation_.load(std::memory_order_acquire);
    }

private:
    const std::string path_;
    mutable Mutex mutex_;
    std::shared_ptr<const MappedPack> pack_ MCSM_GUARDED_BY(mutex_);
    std::atomic<std::uint64_t> generation_{1};
};

}  // namespace mcsm::serve

#endif  // MCSM_SERVE_MAPPED_STORE_H
