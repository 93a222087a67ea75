// Versioned, checksummed binary serialization of characterized models and
// serve-layer arc surfaces -- the at-rest format of the serving layer, one
// payload per file (<key>.csm.bin, <arc>.surf.bin). The mmap pack
// (serve/mapped_store) embeds the same model envelope, so this is also the
// pack's model payload format. The round trip is bit-exact by construction
// (doubles travel as their IEEE-754 bit patterns). Text (core::write_model)
// is a write-only human export; nothing reads it back.
//
// Envelope (shared by every payload kind):
//   magic   8 bytes  "MCSMBIN1"
//   version u32      kFormatVersion (little-endian, like every scalar)
//   kind    u32      payload kind (kModelKind / kSurfaceKind)
//   size    u64      payload byte count
//   check   u64      FNV-1a 64 over the payload bytes
//   payload size bytes
// Readers verify magic, version, kind, size and checksum before any payload
// parsing, and throw ModelError on the slightest mismatch -- a corrupt store
// can never yield a partial model.
//
// Version history:
//   1  initial format (tables, models); no longer read.
//   2  model payload gains the characterization temperature (temp_c);
//      new kSurfaceKind payload (serve-layer delay/slew arc surfaces).
// Writers emit version 2 and readers accept exactly version 2. Kind 1 (a
// bare table) is retired; its number stays reserved.
#ifndef MCSM_SERVE_MODEL_STORE_H
#define MCSM_SERVE_MODEL_STORE_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/model.h"
#include "lut/ndtable.h"

namespace mcsm::serve {

inline constexpr char kStoreMagic[8] = {'M', 'C', 'S', 'M',
                                        'B', 'I', 'N', '1'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kModelKind = 2;
inline constexpr std::uint32_t kSurfaceKind = 3;

// Canonical file extensions of the store formats.
inline constexpr const char* kBinaryModelExt = ".csm.bin";
inline constexpr const char* kSurfaceExt = ".surf.bin";

void write_model_binary(std::ostream& os, const core::CsmModel& model);
core::CsmModel read_model_binary(std::istream& is);

// A persisted serve-layer arc surface: the delay/slew tables the
// TimingService builds by running one CSM transient per knot, plus the
// evaluation parameters they were built under. arc_id and the parameters
// let a loader reject stale files after an options change instead of
// serving wrong numbers.
struct ArcSurfaceData {
    std::string arc_id;   // TimingService arc identity (cell|pins|dir|corner)
    double dt = 0.0;      // transient step the knots were measured with [s]
    double settle = 0.0;  // post-edge simulation window [s]
    // model_checksum() of the CSM model the knot transients ran against;
    // loaders compare it so a surface derived from a stale model (e.g.
    // re-characterized with different options) is rebuilt, never served.
    std::uint64_t model_check = 0;
    lut::NdTable delay;
    lut::NdTable slew;
};

void write_surface_binary(std::ostream& os, const ArcSurfaceData& surface);
ArcSurfaceData read_surface_binary(std::istream& is);

// FNV-1a 64 over the model's binary payload: a content identity for
// derived caches (arc surfaces).
std::uint64_t model_checksum(const core::CsmModel& model);

// --- durable file plumbing ---------------------------------------------
//
// Every store writer publishes through write-temp + fsync + rename +
// fsync(parent dir): after save_* returns, the new file survives a crash
// or power loss, and a reader can never observe a truncated payload under
// the final name (the incomplete bytes only ever live under a "*.tmp.*"
// name). These helpers are shared with the pack writer in
// serve/mapped_store.

// Writes `bytes` to `path` durably and atomically: unique same-directory
// temp file, full write, fsync, rename over `path`, fsync of the parent
// directory. Throws ModelError on any failure (the temp is cleaned up).
void save_bytes_atomically(const std::string& path, const std::string& bytes);

// Durably renames the fully-written, fsync'd `tmp` over `path` and fsyncs
// the parent directory of `path`. When the rename fails with EXDEV (tmp on
// a different filesystem), falls back to copying into a fresh temp next to
// `path` first, so cross-filesystem temp directories still publish
// atomically. Throws ModelError on failure; `tmp` is removed either way.
void durable_replace_file(const std::string& tmp, const std::string& path);

// Removes "*.tmp.*" droppings left in `dir` by writers that died between
// write and rename. Only files older than `min_age_s` are removed, so a
// concurrently-running writer's in-flight temp is never yanked away.
// Returns the number of files removed; missing/unreadable directories
// count as empty. ModelRepository runs this on construction.
std::size_t clean_orphan_temps(const std::string& dir, long min_age_s);

// File convenience wrappers; save overwrites atomically AND durably (see
// above), load throws ModelError when the file is missing, truncated,
// corrupt, or structurally inconsistent.
void save_model_binary(const std::string& path, const core::CsmModel& model);
core::CsmModel load_model_binary(const std::string& path);
void save_surface_binary(const std::string& path,
                         const ArcSurfaceData& surface);
ArcSurfaceData load_surface_binary(const std::string& path);

}  // namespace mcsm::serve

#endif  // MCSM_SERVE_MODEL_STORE_H
