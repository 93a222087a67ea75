// Serving-layer tests: bit-exact binary store round trips (for every
// library cell), corrupt-input rejection (bad magic, bad version, bad
// checksums, truncations -- always ModelError, never a partial model),
// repository caching semantics (lazy load, single-flight characterization,
// clean cache after failures), deterministic batched timing queries
// across thread counts, LUT answers pinned bit for bit, the per-query
// error and surface counters, and allocation-free warm LUT batches.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cells/library.h"
#include "common/alloc_instrument.h"
#include "common/parallel.h"
#include "common/single_flight.h"
#include "core/characterizer.h"
#include "core/model_io.h"
#include "obs/metrics.h"
#include "serve/model_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

namespace mcsm::serve {
namespace {

namespace fs = std::filesystem;

core::CharOptions fast_options(std::size_t grid_points = 6) {
    core::CharOptions opt;
    opt.transient_caps = false;  // model-linearized caps: test-fast
    opt.grid_points = grid_points;
    opt.cin_points = 5;
    opt.threads = 1;
    return opt;
}

// Deterministic serialization makes byte equality a bit-exactness check
// over every field and table value.
std::string binary_bytes(const core::CsmModel& model) {
    std::stringstream ss;
    write_model_binary(ss, model);
    return ss.str();
}

// Shared characterized models (expensive; characterize once per suite).
struct Shared {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    core::CsmModel inv;
    core::CsmModel nor;

    static const Shared& get() {
        static Shared s;
        return s;
    }

private:
    Shared() {
        const core::Characterizer chr(lib);
        inv = chr.characterize("INV_X1", core::ModelKind::kSis, {"A"},
                               fast_options());
        nor = chr.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"},
                               fast_options());
    }
};

// Unique scratch directory per test, removed on scope exit.
struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("mcsm_serve_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
};

// --- binary store round trips -------------------------------------------

TEST(ModelStore, ModelRoundTripEveryLibraryCell) {
    const Shared& s = Shared::get();
    const core::Characterizer chr(s.lib);
    for (const std::string& name : s.lib.names()) {
        const cells::CellType& cell = s.lib.get(name);
        std::vector<std::string> pins{cell.inputs().front().name};
        core::ModelKind kind = core::ModelKind::kSis;
        if (cell.input_count() >= 2) {
            pins.push_back(cell.inputs()[1].name);
            kind = core::ModelKind::kMcsm;
        }
        // 5-D models (two internals) get a smaller grid to stay test-fast.
        const core::CsmModel model = chr.characterize(
            name, kind, pins,
            fast_options(cell.internal_nodes().size() >= 2 ? 5u : 6u));

        std::stringstream ss(binary_bytes(model));
        const core::CsmModel back = read_model_binary(ss);
        EXPECT_EQ(binary_bytes(back), binary_bytes(model))
            << "binary round trip not bit-exact for " << name;
    }
}

TEST(ModelStore, SaveLoadFileRoundTrip) {
    const Shared& s = Shared::get();
    TempDir dir("file_roundtrip");
    const std::string path = dir.str() + "/nor" + kBinaryModelExt;
    save_model_binary(path, s.nor);
    const core::CsmModel back = load_model_binary(path);
    EXPECT_EQ(binary_bytes(back), binary_bytes(s.nor));
    // Atomic write: only the published file, no temp left behind.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path))
        ++entries;
    EXPECT_EQ(entries, 1u);
}

// --- corrupt / malformed inputs ------------------------------------------

TEST(ModelStoreValidation, RejectsBadMagic) {
    std::string bytes = binary_bytes(Shared::get().nor);
    bytes[0] = 'X';
    std::stringstream ss(bytes);
    EXPECT_THROW(read_model_binary(ss), ModelError);
}

TEST(ModelStoreValidation, RejectsTruncationAtAnyDepth) {
    const std::string bytes = binary_bytes(Shared::get().nor);
    for (const double frac : {0.001, 0.1, 0.5, 0.9, 0.9999}) {
        const std::size_t cut =
            static_cast<std::size_t>(frac * static_cast<double>(bytes.size()));
        std::stringstream ss(bytes.substr(0, cut));
        EXPECT_THROW(read_model_binary(ss), ModelError) << "cut=" << cut;
    }
}

TEST(ModelStoreValidation, RejectsPayloadBitFlips) {
    const std::string bytes = binary_bytes(Shared::get().nor);
    // Flip one bit at several payload offsets; the checksum must catch all.
    for (const double frac : {0.2, 0.5, 0.95}) {
        std::string corrupt = bytes;
        const std::size_t at =
            32 + static_cast<std::size_t>(
                     frac * static_cast<double>(bytes.size() - 64));
        corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
        std::stringstream ss(corrupt);
        EXPECT_THROW(read_model_binary(ss), ModelError) << "at=" << at;
    }
}

// --- new-in-v2 payloads: corner metadata and arc surfaces ---------------

ArcSurfaceData sample_surface() {
    ArcSurfaceData s;
    s.arc_id = "NOR2|A-B|F";
    s.dt = 4e-12;
    s.settle = 1.5e-9;
    s.model_check = 0x5eedf00dULL;
    std::vector<lut::Axis> axes{lut::Axis("slew", {50e-12, 150e-12}),
                                lut::Axis("load", {2e-15, 8e-15})};
    s.delay = lut::NdTable(axes, s.arc_id + ".delay");
    s.slew = lut::NdTable(axes, s.arc_id + ".slew");
    double v = 11e-12;
    s.delay.for_each_grid_point([&](std::span<const std::size_t>,
                                    std::span<const double>, double& slot) {
        slot = (v += 3e-12);
    });
    s.slew.for_each_grid_point([&](std::span<const std::size_t>,
                                   std::span<const double>, double& slot) {
        slot = (v += 5e-12);
    });
    return s;
}

std::string surface_bytes(const ArcSurfaceData& s) {
    std::stringstream ss;
    write_surface_binary(ss, s);
    return ss.str();
}

TEST(ModelStore, SurfaceRoundTripIsBitExact) {
    const ArcSurfaceData s = sample_surface();
    std::stringstream ss(surface_bytes(s));
    const ArcSurfaceData back = read_surface_binary(ss);
    EXPECT_EQ(back.arc_id, s.arc_id);
    EXPECT_EQ(back.dt, s.dt);
    EXPECT_EQ(back.settle, s.settle);
    EXPECT_EQ(back.model_check, s.model_check);
    EXPECT_EQ(surface_bytes(back), surface_bytes(s));
}

TEST(ModelStore, SurfaceRoundTripPreservesQuirkValues) {
    // Values that decimal text formatting historically mangles: subnormals,
    // negative zero, huge/tiny magnitudes.
    const std::vector<double> vals{
        5e-324, -5e-324, -0.0,   0.0,       1e308,      -1e308,
        1e-300, 3.14,    -2e-9,  7.77e-16,  0.1,        -0.3,
    };
    ArcSurfaceData s = sample_surface();
    const std::vector<lut::Axis> axes{
        lut::Axis("x", {-0.12, 0.0, 0.6, 1.32}),
        lut::Axis("y", {1e-18, 2.5e-15, 6.4e-13})};
    s.delay = lut::NdTable(axes, "quirks");
    s.slew = lut::NdTable(axes, "quirks_reversed");
    std::size_t i = 0;
    s.delay.for_each_grid_point([&](std::span<const std::size_t>,
                                    std::span<const double>, double& slot) {
        slot = vals[i++];
    });
    s.slew.for_each_grid_point([&](std::span<const std::size_t>,
                                   std::span<const double>, double& slot) {
        slot = vals[--i];
    });

    std::stringstream ss(surface_bytes(s));
    const ArcSurfaceData back = read_surface_binary(ss);
    EXPECT_EQ(back.delay.name(), "quirks");
    ASSERT_EQ(back.delay.values().size(), vals.size());
    for (std::size_t k = 0; k < vals.size(); ++k)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.delay.values()[k]),
                  std::bit_cast<std::uint64_t>(s.delay.values()[k]))
            << k;
    EXPECT_EQ(surface_bytes(back), surface_bytes(s));
}

TEST(ModelStore, ModelCarriesCharacterizationTemperature) {
    core::CsmModel m = Shared::get().inv;
    m.temp_c = 85.0;
    std::stringstream ss(binary_bytes(m));
    EXPECT_EQ(read_model_binary(ss).temp_c, 85.0);
}

void poke_u32(std::string& bytes, std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
        bytes[at + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(ModelStoreValidation, RejectsBadVersion) {
    // Version 2 is the only one read: a version-1 file (pre-corner models,
    // no surfaces) and an unknown future version both fail before any
    // payload parsing. The version sits outside the checksummed payload.
    const std::string model = binary_bytes(Shared::get().nor);
    const std::string surface = surface_bytes(sample_surface());
    for (const std::uint32_t version : {0u, 1u, 3u}) {
        std::string m = model;
        poke_u32(m, 8, version);
        std::stringstream model_ss(m);
        EXPECT_THROW(read_model_binary(model_ss), ModelError) << version;
        std::string s = surface;
        poke_u32(s, 8, version);
        std::stringstream surf_ss(s);
        EXPECT_THROW(read_surface_binary(surf_ss), ModelError) << version;
    }
}

TEST(ModelStoreValidation, RejectsKindMismatch) {
    // The retired table kind (1) and an unknown kind are not a model.
    for (const std::uint32_t kind : {1u, 4u}) {
        std::string bytes = binary_bytes(Shared::get().nor);
        poke_u32(bytes, 12, kind);
        std::stringstream ss(bytes);
        EXPECT_THROW(read_model_binary(ss), ModelError) << kind;
    }
}

TEST(ModelStoreValidation, SurfaceAndModelKindsDoNotCrossLoad) {
    std::stringstream model_ss(binary_bytes(Shared::get().nor));
    EXPECT_THROW(read_surface_binary(model_ss), ModelError);
    std::stringstream surf_ss(surface_bytes(sample_surface()));
    EXPECT_THROW(read_model_binary(surf_ss), ModelError);
}

// Fuzz-style robustness over the v2 payload kinds: seeded random
// truncations and single-bit flips over freshly written files must always
// throw ModelError before any object exists -- never crash, never yield a
// partial surface/model.
TEST(ModelStoreValidation, FuzzedTruncationsAndBitFlipsAlwaysThrow) {
    const std::string surface = surface_bytes(sample_surface());
    const std::string model = binary_bytes(Shared::get().inv);
    std::mt19937 gen(0xC0FFEEu);

    const auto read_any = [](const std::string& bytes, bool is_surface) {
        std::stringstream ss(bytes);
        if (is_surface)
            (void)read_surface_binary(ss);
        else
            (void)read_model_binary(ss);
    };

    for (const bool is_surface : {true, false}) {
        const std::string& bytes = is_surface ? surface : model;
        for (int i = 0; i < 60; ++i) {
            const std::size_t cut = std::uniform_int_distribution<
                std::size_t>(0, bytes.size() - 1)(gen);
            EXPECT_THROW(read_any(bytes.substr(0, cut), is_surface),
                         ModelError)
                << (is_surface ? "surface" : "model") << " cut=" << cut;
        }
        for (int i = 0; i < 80; ++i) {
            std::string corrupt = bytes;
            const std::size_t at = std::uniform_int_distribution<
                std::size_t>(0, bytes.size() - 1)(gen);
            const int bit = std::uniform_int_distribution<int>(0, 7)(gen);
            corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << bit));
            EXPECT_THROW(read_any(corrupt, is_surface), ModelError)
                << (is_surface ? "surface" : "model") << " at=" << at
                << " bit=" << bit;
        }
    }
}

// --- single-flight cache ---------------------------------------------------

TEST(SingleFlight, FailureIsNotCachedAndRetries) {
    SingleFlightCache<int> cache;
    EXPECT_THROW(cache.get_or_produce(
                     "k",
                     []() -> std::shared_ptr<const int> {
                         throw ModelError("production failed");
                     }),
                 ModelError);
    EXPECT_FALSE(cache.ready("k"));
    const auto v = cache.get_or_produce(
        "k", [] { return std::make_shared<const int>(7); });
    EXPECT_EQ(*v, 7);
    EXPECT_TRUE(cache.ready("k"));
}

TEST(SingleFlight, FailedProducerDoesNotEvictConcurrentPut) {
    // A put() that lands while a production for the same key is failing
    // must survive the producer's eviction (the producer may only remove
    // its own in-flight entry).
    SingleFlightCache<int> cache;
    const auto put_value = std::make_shared<const int>(42);
    EXPECT_THROW(cache.get_or_produce(
                     "k",
                     [&]() -> std::shared_ptr<const int> {
                         cache.put("k", put_value);
                         throw ModelError("production failed");
                     }),
                 ModelError);
    EXPECT_TRUE(cache.ready("k"));
    const auto got = cache.get_or_produce(
        "k", []() -> std::shared_ptr<const int> {
            ADD_FAILURE() << "producer ran despite cached value";
            return nullptr;
        });
    EXPECT_EQ(got.get(), put_value.get());
}

// --- repository -----------------------------------------------------------

TEST(Repository, CorruptFileFailsAndCacheStaysClean) {
    const Shared& s = Shared::get();
    TempDir dir("corrupt");
    const ModelKey key = ModelKey::arc("NOR2", {"A", "B"});

    RepositoryOptions opt;
    opt.dir = dir.str();
    ModelRepository repo(nullptr, opt);
    {
        std::ofstream os(repo.binary_path(key), std::ios::binary);
        os << "MCSMBIN1 but not really";
    }
    EXPECT_THROW(repo.get(key), ModelError);
    EXPECT_EQ(repo.cached_count(), 0u);  // no partial model cached

    // Replacing the corrupt file heals the key without restarting.
    save_model_binary(repo.binary_path(key), s.nor);
    const auto model = repo.get(key);
    EXPECT_EQ(binary_bytes(*model), binary_bytes(s.nor));
    EXPECT_TRUE(repo.cached(key));
}

TEST(Repository, FullMissWithoutLibraryThrows) {
    ModelRepository repo(nullptr, RepositoryOptions{});
    EXPECT_THROW(repo.get(ModelKey::arc("NOR2", {"A", "B"})), ModelError);
    EXPECT_EQ(repo.cached_count(), 0u);
}

TEST(Repository, SingleFlightCharacterizesOnceUnderConcurrency) {
    const Shared& s = Shared::get();
    RepositoryOptions opt;
    opt.char_options = fast_options();
    ModelRepository repo(&s.lib, opt);

    const ModelKey key = ModelKey::arc("INV_X1", {"A"});
    std::vector<std::shared_ptr<const core::CsmModel>> seen(6);
    parallel_workers(seen.size(),
                     [&](std::size_t w) { seen[w] = repo.get(key); });
    EXPECT_EQ(repo.characterize_count(), 1u);
    for (const auto& m : seen) EXPECT_EQ(m.get(), seen.front().get());
}

TEST(Repository, WriteBackThenColdLoadIsBitExact) {
    const Shared& s = Shared::get();
    TempDir dir("writeback");
    const ModelKey key = ModelKey::arc("NOR2", {"A", "B"});

    RepositoryOptions opt;
    opt.dir = dir.str();
    {
        ModelRepository warm(&s.lib, opt);
        warm.put(key, s.nor);
        EXPECT_TRUE(fs::exists(warm.binary_path(key)));
    }
    ModelRepository cold(nullptr, opt);  // no library: disk only
    EXPECT_EQ(binary_bytes(*cold.get(key)), binary_bytes(s.nor));
    EXPECT_EQ(cold.characterize_count(), 0u);
}

TEST(Repository, TextExportIsNeverReadBack) {
    // A store dir holding only the text export <key>.csm is a miss: text
    // is write-only, so the repository characterizes instead of parsing it.
    const Shared& s = Shared::get();
    TempDir dir("text_export");
    const ModelKey key = ModelKey::arc("INV_X1", {"A"});

    RepositoryOptions opt;
    opt.dir = dir.str();
    opt.char_options = fast_options();
    core::save_model(dir.str() + "/" + key.to_string() + ".csm", s.inv);

    ModelRepository no_lib(nullptr, opt);
    EXPECT_THROW(no_lib.get(key), ModelError);
    EXPECT_FALSE(fs::exists(no_lib.binary_path(key)));

    ModelRepository repo(&s.lib, opt);
    EXPECT_EQ(binary_bytes(*repo.get(key)), binary_bytes(s.inv));
    EXPECT_EQ(repo.characterize_count(), 1u);
    EXPECT_TRUE(fs::exists(repo.binary_path(key)));  // written back
}

// --- repository corner keying ---------------------------------------------

TEST(Repository, CornerModelsCharacterizeCacheAndReloadDistinctly) {
    const Shared& s = Shared::get();
    TempDir dir("corners");
    RepositoryOptions opt;
    opt.dir = dir.str();
    opt.char_options = fast_options();

    const Corner hot{1.0, 100.0};
    const ModelKey nominal = ModelKey::arc("INV_X1", {"A"});
    const ModelKey corner = ModelKey::arc("INV_X1", {"A"}, hot);
    ASSERT_NE(nominal.to_string(), corner.to_string());
    EXPECT_EQ(corner.to_string(), "INV_X1.SIS.A@1V100C");

    std::string nom_bytes;
    std::string hot_bytes;
    {
        ModelRepository warm(&s.lib, opt);
        const auto nom = warm.get(nominal);
        const auto hot_model = warm.get(corner);
        EXPECT_EQ(warm.characterize_count(), 2u);  // no cross-corner hit
        EXPECT_TRUE(warm.cached(nominal));
        EXPECT_TRUE(warm.cached(corner));

        // The corner model really is a different model, characterized on a
        // derated card: supply and temperature both differ.
        EXPECT_EQ(nom->vdd, s.tech.vdd);
        EXPECT_EQ(nom->temp_c, 25.0);
        EXPECT_EQ(hot_model->vdd, 1.0);
        EXPECT_EQ(hot_model->temp_c, 100.0);
        nom_bytes = binary_bytes(*nom);
        hot_bytes = binary_bytes(*hot_model);
        EXPECT_NE(nom_bytes, hot_bytes);
        EXPECT_TRUE(fs::exists(warm.binary_path(nominal)));
        EXPECT_TRUE(fs::exists(warm.binary_path(corner)));
    }

    // Cold restart from the binary store, no library attached: both corner
    // variants reload bit-exactly from their own files, without
    // characterization and without cross-corner cache hits.
    ModelRepository cold(nullptr, opt);
    EXPECT_EQ(binary_bytes(*cold.get(corner)), hot_bytes);
    EXPECT_TRUE(cold.cached(corner));
    EXPECT_FALSE(cold.cached(nominal));
    EXPECT_EQ(binary_bytes(*cold.get(nominal)), nom_bytes);
    EXPECT_EQ(cold.characterize_count(), 0u);
}

// --- timing service --------------------------------------------------------

ServeOptions test_serve_options() {
    ServeOptions opt;
    opt.slew_knots = {50e-12, 150e-12};
    // Normalized edge offsets: +-1.25 mean-slews around simultaneity.
    opt.skew_knots = {-1.25, 0.0, 1.25};
    opt.load_knots = {2e-15, 8e-15};
    opt.dt = 4e-12;
    opt.settle = 1.5e-9;
    return opt;
}

// Repository pre-seeded with the shared models; no disk, no characterizer.
std::unique_ptr<ModelRepository> seeded_repo() {
    const Shared& s = Shared::get();
    auto repo =
        std::make_unique<ModelRepository>(nullptr, RepositoryOptions{});
    repo->put(ModelKey::arc("INV_X1", {"A"}), s.inv);
    repo->put(ModelKey::arc("NOR2", {"A", "B"}), s.nor);
    return repo;
}

TEST(TimingService, NearbyCornersNeverShareAKeyOrSurface) {
    // Corner tags print vdd and temperature in shortest round-trip form:
    // 1.0800004 V no longer rounds onto the 1.08 V tag, so the two corners
    // get their own model keys, arc ids and surfaces, and answers cannot
    // depend on which corner was queried first. The tags in use keep
    // their spelling.
    EXPECT_EQ((Corner{1.08, 85.0}.tag()), "1.08V85C");
    EXPECT_EQ((Corner{1.1, 85.0}.tag()), "1.1V85C");
    EXPECT_EQ((Corner{1.0, 100.0}.tag()), "1V100C");
    EXPECT_EQ(Corner{}.tag(), "");

    const Corner a{1.08, 85.0};
    const Corner b{1.0800004, 85.0};
    const ModelKey key_a = ModelKey::arc("INV_X1", {"A"}, a);
    const ModelKey key_b = ModelKey::arc("INV_X1", {"A"}, b);
    EXPECT_EQ(key_a.to_string(), "INV_X1.SIS.A@1.08V85C");
    EXPECT_NE(key_a.to_string(), key_b.to_string());

    auto repo = seeded_repo();
    repo->put(key_a, Shared::get().inv);
    repo->put(key_b, Shared::get().inv);
    TimingService service(*repo, test_serve_options());
    TimingQuery q;
    q.cell = "INV_X1";
    q.pins = {"A"};
    q.slews = {80e-12};
    q.load_cap = 4e-15;
    for (const Corner& c : {a, b}) {
        q.corner = c;
        const TimingResult r = service.run_one(q);
        EXPECT_TRUE(r.valid) << r.error;
    }
    // One surface per arc id: a shared id would serve b from a's surface.
    EXPECT_EQ(service.surface_count(), 2u);
}

TEST(TimingService, LutPathMatchesTransientAtSurfaceKnots) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "NOR2";
    q.pins = {"A", "B"};
    q.inputs_rise = false;  // both fall -> output rises through the stack
    q.slews = {50e-12, 150e-12};
    // The skew axis holds normalized 50%-crossing offsets: delta = skew_b
    // + (slew_b - slew_a)/2 = 125 ps over a 100 ps mean slew, i.e. the
    // u = +1.25 surface knot.
    q.skews = {0.0, 75e-12};
    q.load_cap = 8e-15;

    const TimingResult lut = service.run_one(q);
    ASSERT_TRUE(lut.valid) << lut.error;
    EXPECT_EQ(lut.path, ResultPath::kLut);

    TimingQuery exact = q;
    exact.exact = true;
    const TimingResult ref = service.run_one(exact);
    ASSERT_TRUE(ref.valid) << ref.error;
    EXPECT_EQ(ref.path, ResultPath::kTransient);

    // At a surface knot the LUT holds the value measured from the identical
    // deterministic transient. The delay differs from the exact path only
    // by the rounding of the pin-0 -> latest-edge reference conversion
    // (sub-attosecond); the slew is bitwise identical.
    EXPECT_NEAR(lut.delay, ref.delay, 1e-22);
    EXPECT_EQ(lut.slew, ref.slew);
}

TEST(TimingService, LutPathInterpolatesOffKnotWithinTolerance) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "NOR2";
    q.pins = {"A", "B"};
    q.slews = {80e-12, 120e-12};  // off every surface knot
    q.skews = {0.0, 40e-12};
    q.load_cap = 5e-15;

    const TimingResult lut = service.run_one(q);
    TimingQuery exact = q;
    exact.exact = true;
    const TimingResult ref = service.run_one(exact);
    ASSERT_TRUE(lut.valid && ref.valid) << lut.error << ref.error;
    EXPECT_NEAR(lut.delay, ref.delay, 0.25 * std::abs(ref.delay) + 5e-12);
    EXPECT_NEAR(lut.slew, ref.slew, 0.25 * ref.slew + 5e-12);
}

TEST(TimingService, SkewIsAFirstClassQueryAxis) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    // Sweeping the B skew through the MIS valley must change the answer;
    // a characterization-time-only treatment would return a flat curve.
    std::vector<TimingQuery> batch;
    for (const double skew : {-100e-12, 0.0, 100e-12}) {
        TimingQuery q;
        q.cell = "NOR2";
        q.pins = {"A", "B"};
        q.slews = {80e-12, 80e-12};
        q.skews = {0.0, skew};
        q.load_cap = 4e-15;
        batch.push_back(q);
    }
    const std::vector<TimingResult> r = service.run_batch(batch);
    ASSERT_TRUE(r[0].valid && r[1].valid && r[2].valid);
    // Absolute-skew invariance: shifting both edges together is a no-op
    // (up to the ulp the skew subtraction itself introduces).
    TimingQuery shifted = batch[2];
    shifted.skews = {60e-12, 160e-12};
    const TimingResult rs = service.run_one(shifted);
    EXPECT_NEAR(rs.delay, r[2].delay, 1e-20);
    // The simultaneous point must differ from the widely skewed points.
    EXPECT_NE(r[1].delay, r[0].delay);
    EXPECT_NE(r[1].delay, r[2].delay);
}

TEST(TimingService, BatchIsDeterministicAcrossThreadCounts) {
    auto repo = seeded_repo();

    // A mixed batch: both cells, both paths, off-grid skews, one failing
    // query (unknown cell) that must not poison the rest.
    std::vector<TimingQuery> batch;
    for (int i = 0; i < 24; ++i) {
        TimingQuery q;
        if (i % 3 == 0) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.slews = {(40 + 13.0 * (i % 7)) * 1e-12};
        } else {
            q.cell = "NOR2";
            q.pins = {"A", "B"};
            q.slews = {(50 + 10.0 * (i % 5)) * 1e-12,
                       (60 + 9.0 * (i % 6)) * 1e-12};
            q.skews = {0.0, (i % 5 - 2) * 35e-12};
        }
        q.inputs_rise = (i % 2) == 1;
        q.load_cap = (2 + (i % 4) * 2) * 1e-15;
        q.exact = (i % 8) == 5;
        batch.push_back(q);
    }
    TimingQuery bad;
    bad.cell = "NO_SUCH_CELL";
    bad.pins = {"A"};
    bad.slews = {50e-12};
    batch.push_back(bad);

    ServeOptions opt1 = test_serve_options();
    opt1.threads = 1;
    ServeOptions optN = test_serve_options();
    optN.threads = 4;
    TimingService serial(*repo, opt1);
    TimingService parallel(*repo, optN);

    const std::vector<TimingResult> a = serial.run_batch(batch);
    const std::vector<TimingResult> b = parallel.run_batch(batch);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].valid, b[i].valid) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].delay),
                  std::bit_cast<std::uint64_t>(b[i].delay))
            << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].slew),
                  std::bit_cast<std::uint64_t>(b[i].slew))
            << i;
    }
    EXPECT_FALSE(a.back().valid);
    EXPECT_FALSE(a.back().error.empty());
    for (std::size_t i = 0; i + 1 < a.size(); ++i)
        EXPECT_TRUE(a[i].valid) << i << ": " << a[i].error;
    // One surface per (cell, pins, direction) arc in the batch.
    EXPECT_EQ(serial.surface_count(), parallel.surface_count());
}

TEST(TimingService, WaveformQueriesReturnTheOutputWave) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    TimingQuery q;
    q.cell = "INV_X1";
    q.pins = {"A"};
    q.inputs_rise = true;
    q.slews = {100e-12};
    q.load_cap = 4e-15;
    q.want_waveform = true;

    const TimingResult r = service.run_one(q);
    ASSERT_TRUE(r.valid) << r.error;
    EXPECT_EQ(r.path, ResultPath::kTransient);
    ASSERT_GT(r.waveform.size(), 10u);
    const double vdd = Shared::get().inv.vdd;
    EXPECT_NEAR(r.waveform.first_value(), vdd, 0.05 * vdd);
    EXPECT_LT(r.waveform.last_value(), 0.1 * vdd);
}

// Persisted surfaces are a derived cache of (options, model): a second
// service reloads them bit-for-bit, but a changed source model must force
// a rebuild -- a surface of a stale model is never served.
TEST(TimingService, PersistedSurfacesInvalidateWhenModelChanges) {
    const Shared& s = Shared::get();
    TempDir dir("surf_stale");
    ServeOptions opt = test_serve_options();
    opt.surface_dir = dir.str();

    TimingQuery q;
    q.cell = "INV_X1";
    q.pins = {"A"};
    q.slews = {80e-12};
    q.load_cap = 4e-15;

    auto repo = seeded_repo();
    double fresh_delay = 0.0;
    {
        TimingService first(*repo, opt);
        const TimingResult r = first.run_one(q);
        ASSERT_TRUE(r.valid) << r.error;
        fresh_delay = r.delay;
        EXPECT_EQ(first.surface_load_count(), 0u);  // cold build
    }
    {
        TimingService second(*repo, opt);
        const TimingResult r = second.run_one(q);
        ASSERT_TRUE(r.valid) << r.error;
        EXPECT_EQ(r.delay, fresh_delay);  // bit-exact reload
        EXPECT_EQ(second.surface_load_count(), 1u);
    }

    // Same key, different model content (as after a re-characterization
    // with other options): the persisted surface must be rebuilt.
    core::CsmModel tweaked = s.inv;
    const std::vector<std::size_t> origin(tweaked.i_out.rank(), 0);
    tweaked.i_out.set_grid_value(origin,
                                 tweaked.i_out.grid_value(origin) + 1e-6);
    auto repo2 =
        std::make_unique<ModelRepository>(nullptr, RepositoryOptions{});
    repo2->put(ModelKey::arc("INV_X1", {"A"}), tweaked);
    TimingService third(*repo2, opt);
    const TimingResult r = third.run_one(q);
    ASSERT_TRUE(r.valid) << r.error;
    EXPECT_EQ(third.surface_load_count(), 0u)
        << "stale surface served for a changed model";
}

// Every malformed query must come back as valid=false with a descriptive
// error -- never a crash, never silent garbage -- and must not poison the
// healthy queries sharing its batch.
TEST(TimingService, MalformedQueriesYieldDescriptiveErrors) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());

    const auto base = [] {
        TimingQuery q;
        q.cell = "INV_X1";
        q.pins = {"A"};
        q.slews = {80e-12};
        q.load_cap = 4e-15;
        return q;
    };

    struct Case {
        const char* name;
        std::function<void(TimingQuery&)> mutate;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Case> cases{
        {"empty cell", [](TimingQuery& q) { q.cell.clear(); }},
        {"no pins", [](TimingQuery& q) { q.pins.clear(); }},
        {"four pins",
         [](TimingQuery& q) {
             q.pins = {"A", "B", "C", "D"};
             q.slews.assign(4, 80e-12);
         }},
        {"duplicate pins",
         [](TimingQuery& q) {
             q.pins = {"A", "A"};
             q.slews = {80e-12, 80e-12};
         }},
        {"empty pin name", [](TimingQuery& q) { q.pins = {""}; }},
        {"missing slew", [](TimingQuery& q) { q.slews.clear(); }},
        {"extra slew",
         [](TimingQuery& q) { q.slews = {80e-12, 90e-12}; }},
        {"negative slew", [](TimingQuery& q) { q.slews = {-1e-12}; }},
        {"zero slew", [](TimingQuery& q) { q.slews = {0.0}; }},
        {"NaN slew", [&](TimingQuery& q) { q.slews = {nan}; }},
        {"infinite slew", [&](TimingQuery& q) { q.slews = {inf}; }},
        {"skew count mismatch",
         [](TimingQuery& q) { q.skews = {0.0, 10e-12}; }},
        {"NaN skew", [&](TimingQuery& q) { q.skews = {nan}; }},
        {"negative load", [](TimingQuery& q) { q.load_cap = -1e-15; }},
        {"NaN load", [&](TimingQuery& q) { q.load_cap = nan; }},
        {"negative wire resistance",
         [](TimingQuery& q) { q.r_wire = -100.0; }},
        {"negative far cap",
         [](TimingQuery& q) {
             q.r_wire = 100.0;
             q.c_far = -1e-15;
         }},
        {"pi caps without wire",
         [](TimingQuery& q) { q.c_far = 4e-15; }},
        {"corner vdd out of range",
         [](TimingQuery& q) { q.corner.vdd = 0.05; }},
        {"corner temperature out of range",
         [](TimingQuery& q) { q.corner.temp_c = 400.0; }},
        {"unknown cell", [](TimingQuery& q) { q.cell = "NO_SUCH_CELL"; }},
        {"unknown pin", [](TimingQuery& q) { q.pins = {"Z"}; }},
    };

    // One batch: every malformed case plus a healthy query at each end.
    std::vector<TimingQuery> batch;
    batch.push_back(base());
    for (const Case& c : cases) {
        TimingQuery q = base();
        c.mutate(q);
        batch.push_back(q);
    }
    batch.push_back(base());

    const std::vector<TimingResult> results = service.run_batch(batch);
    EXPECT_TRUE(results.front().valid) << results.front().error;
    EXPECT_TRUE(results.back().valid) << results.back().error;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const TimingResult& r = results[i + 1];
        EXPECT_FALSE(r.valid) << cases[i].name;
        EXPECT_FALSE(r.error.empty()) << cases[i].name;
        EXPECT_EQ(r.delay, 0.0) << cases[i].name << ": no garbage numbers";
    }
}

// Queries on an arc that passes validation but cannot be resolved (no such
// cell in the repository) all fail with the resolution error, and each one
// counts as a query error.
TEST(TimingService, UnresolvableArcFailsAndCountsEveryQuery) {
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());
    std::vector<TimingQuery> batch;
    for (int i = 0; i < 8; ++i) {
        TimingQuery q;
        q.cell = "NO_SUCH_CELL";
        q.pins = {"A"};
        q.slews = {(50 + 10.0 * i) * 1e-12};
        q.load_cap = 4e-15;
        q.exact = i >= 6;  // both paths resolve (and fail) once per arc
        batch.push_back(q);
    }
    obs::Counter& errors = obs::counter("serve.query.errors");
    const long long before = errors.value();
    const std::vector<TimingResult> r = service.run_batch(batch);
    const long long counted = errors.value() - before;
    ASSERT_EQ(r.size(), batch.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
        EXPECT_FALSE(r[i].valid) << i;
        EXPECT_NE(r[i].error.find("NO_SUCH_CELL"), std::string::npos)
            << i << ": " << r[i].error;
    }
    if (obs::enabled()) {
        EXPECT_EQ(counted, static_cast<long long>(batch.size()));
    }
}

// serve.surface.{hit,miss,wait} count LUT queries: an arc's first query in
// a batch records how its surface was served, the others record hits.
TEST(TimingService, SurfaceCountersCountEveryLutQuery) {
    if (!obs::enabled()) GTEST_SKIP() << "built with MCSM_OBS=OFF";
    auto repo = seeded_repo();
    TimingService service(*repo, test_serve_options());
    std::vector<TimingQuery> batch;
    for (int i = 0; i < 5; ++i) {
        TimingQuery q;
        q.cell = "INV_X1";
        q.pins = {"A"};
        q.slews = {(60 + 10.0 * i) * 1e-12};
        q.load_cap = 3e-15;
        batch.push_back(q);
    }
    obs::Counter& hits = obs::counter("serve.surface.hit");
    obs::Counter& misses = obs::counter("serve.surface.miss");
    const long long hits0 = hits.value();
    const long long misses0 = misses.value();
    service.run_batch(batch);  // cold: one miss, then hits
    EXPECT_EQ(misses.value() - misses0, 1);
    EXPECT_EQ(hits.value() - hits0, 4);
    service.run_batch(batch);  // warm: every query hits
    EXPECT_EQ(misses.value() - misses0, 1);
    EXPECT_EQ(hits.value() - hits0, 9);
}

// Mixed LUT traffic on fixed arcs: INV_X1 and NOR2, lumped and pi loads,
// skews inside and beyond the skew hull.
std::vector<TimingQuery> lut_traffic(std::size_t n) {
    std::vector<TimingQuery> batch;
    for (std::size_t i = 0; i < n; ++i) {
        TimingQuery q;
        if (i % 3 == 0) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.slews = {(45 + 7.0 * static_cast<double>(i % 11)) * 1e-12};
        } else {
            q.cell = "NOR2";
            q.pins = {"A", "B"};
            q.slews = {(55 + 5.0 * static_cast<double>(i % 13)) * 1e-12,
                       (60 + 4.0 * static_cast<double>(i % 7)) * 1e-12};
            q.skews = {0.0,
                       (static_cast<double>(i % 9) - 4.0) * 60e-12};
        }
        q.inputs_rise = (i % 2) == 1;
        q.load_cap = (1.5 + 0.5 * static_cast<double>(i % 10)) * 1e-15;
        if (i % 5 == 0) {
            q.c_near = 0.5e-15;
            q.r_wire = 400.0;
            q.c_far = 2e-15;
        }
        batch.push_back(std::move(q));
    }
    return batch;
}

// A warm LUT batch allocates per batch (its results, its arc table), never
// per query: 64 and 512 queries on the same arcs cost the same number of
// heap allocations.
TEST(TimingService, WarmLutBatchAllocatesNothingPerQuery) {
    auto repo = seeded_repo();
    ServeOptions opt = test_serve_options();
    opt.threads = 1;
    TimingService service(*repo, opt);
    const std::vector<TimingQuery> small = lut_traffic(64);
    const std::vector<TimingQuery> large = lut_traffic(512);
    for (const TimingResult& r : service.run_batch(large))  // warm up
        ASSERT_TRUE(r.valid) << r.error;
    const auto allocations = [&](const std::vector<TimingQuery>& batch) {
        const std::size_t before = AllocCounter::count();
        const std::vector<TimingResult> r = service.run_batch(batch);
        return AllocCounter::count() - before;
    };
    const std::size_t small_allocs = allocations(small);
    const std::size_t large_allocs = allocations(large);
    EXPECT_EQ(small_allocs, large_allocs)
        << "allocations grow with the query count";
    EXPECT_GT(small_allocs, 0u) << "allocation counter is not instrumented";
}

// --- pinned LUT results ----------------------------------------------------

// Small 3-pin grid (2 * 2 * 2 * 3 * 3 * 2 = 144 knot transients) on top of
// the 1-/2-pin test grid.
ServeOptions pinned_serve_options() {
    ServeOptions opt = test_serve_options();
    opt.slew_knots_mis3 = {60e-12, 200e-12};
    opt.skew_knots_mis3 = {-1.0, 0.0, 1.0};
    opt.skew_pair_knots_mis3 = {-0.8, 0.0, 0.8};
    opt.load_knots_mis3 = {2e-15, 8e-15};
    return opt;
}

// Repository with the shared nominal models and a library behind it, so the
// derated INV_X1 corner and the 6-D NAND3 model characterize on miss.
std::unique_ptr<ModelRepository> library_repo() {
    const Shared& s = Shared::get();
    RepositoryOptions ropt;
    ropt.char_options = fast_options();
    ropt.char_options_mis3 = fast_options(4);
    auto repo = std::make_unique<ModelRepository>(&s.lib, ropt);
    repo->put(ModelKey::arc("INV_X1", {"A"}), s.inv);
    repo->put(ModelKey::arc("NOR2", {"A", "B"}), s.nor);
    return repo;
}

const Corner kPinnedCorner{1.1, 85.0};

// Edge-start skews that put pin p at normalized offset u[p] relative to
// pin 0 (the inverse of the surface's skew coordinate).
std::vector<double> skews_for(const std::vector<double>& slews,
                              const double* u) {
    std::vector<double> skews(slews.size(), 0.0);
    for (std::size_t p = 1; p < slews.size(); ++p)
        skews[p] = u[p] * 0.5 * (slews[0] + slews[p]) -
                   0.5 * (slews[p] - slews[0]);
    return skews;
}

// A seeded mixed LUT batch covering every class the LUT path serves
// differently: 1-, 2- and 3-pin arcs; the derated corner; lumped loads;
// pi loads whose effective-capacitance iteration converges early (every
// candidate cap beyond the load hull), runs all four rounds, or is skipped
// (no far cap); normalized skews beyond both ends of the skew hull; and
// knot-exact coordinates. Raw mt19937 words (not <random> distributions)
// keep the batch identical across standard libraries.
std::vector<TimingQuery> pinned_batch() {
    std::mt19937 gen(20261018u);
    const auto in = [&](double lo, double hi) {
        return lo + (hi - lo) * (static_cast<double>(gen()) / 4294967296.0);
    };
    std::vector<TimingQuery> batch;
    for (std::size_t i = 0; i < 48; ++i) {
        TimingQuery q;
        const std::size_t arc = i % 6;
        const std::size_t variant = (i / 6) % 8;
        if (arc <= 1) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.inputs_rise = arc == 1;
            if (arc == 1) q.corner = kPinnedCorner;
        } else if (arc <= 3) {
            q.cell = "NOR2";
            q.pins = {"A", "B"};
            q.inputs_rise = arc == 3;
        } else {
            q.cell = "NAND3";
            q.pins = {"A", "B", "C"};
            q.inputs_rise = true;
        }
        const std::size_t n = q.pins.size();
        const bool knot = variant == 7;
        for (std::size_t p = 0; p < n; ++p)
            q.slews.push_back(knot ? (n == 3 ? 200e-12 : 50e-12)
                                   : in(55e-12, 180e-12));
        double u[3] = {0.0, in(-1.0, 1.0), in(-0.9, 0.9)};
        if (variant == 3) {  // below the skew hull
            u[1] = in(-4.0, -2.0);
            u[2] = u[1] + in(0.2, 0.6);
        } else if (variant == 5) {  // above the skew hull
            u[1] = in(2.0, 4.0);
            u[2] = in(-0.5, 0.5);
        } else if (knot) {
            u[1] = n == 3 ? 1.0 : 1.25;
            u[2] = n == 3 ? 0.2 : 0.0;  // (max, diff) = (1, 0.8)
        }
        if (n > 1) q.skews = skews_for(q.slews, u);
        q.load_cap = knot ? 8e-15 : in(1.5e-15, 7e-15);
        if (variant == 1 || variant == 5) {  // all four Ceff rounds
            q.load_cap = in(0.5e-15, 2e-15);
            q.c_near = in(0.3e-15, 1e-15);
            q.r_wire = in(300.0, 900.0);
            q.c_far = in(1.5e-15, 3.5e-15);
        } else if (variant == 2) {  // converges early: beyond the load hull
            q.load_cap = in(9e-15, 12e-15);
            q.c_near = 1e-15;
            q.r_wire = in(100.0, 400.0);
            q.c_far = in(2e-15, 4e-15);
        } else if (variant == 6) {  // no far cap: Ceff is the lumped total
            q.c_near = in(0.5e-15, 2e-15);
            q.r_wire = 250.0;
        }
        batch.push_back(std::move(q));
    }
    return batch;
}

struct PinnedResult {
    double delay;
    double slew;
};

// Captured from an evaluator that ran one TableView::at per lookup, the
// reference arithmetic; any LUT evaluator must reproduce them bit for bit.
constexpr PinnedResult kPinnedLut[] = {
    {0x1.4ebfa77e914p-35, 0x1.04634ffe9c212p-34},
    {0x1.6d4f2b3857748p-35, 0x1.fdc3dd16b3848p-35},
    {0x1.3c3fbd17ac6c4p-35, 0x1.cf5808ad17803p-35},
    {-0x1.8e475103efb03p-35, 0x1.527df817dc1a2p-35},
    {0x1.191e8dcc770f2p-35, 0x1.4db39bfebc887p-33},
    {0x1.5c7a4cce4472p-36, 0x1.3868072bb964bp-33},
    {0x1.35815fedd7514p-35, 0x1.e1b43119d7f3bp-35},
    {0x1.580e55b6bbef7p-35, 0x1.ea5452078e15dp-35},
    {0x1.61b2057758e28p-35, 0x1.d83ba71a8ce7p-35},
    {-0x1.45e52b7e2c50cp-35, 0x1.3f3536bc8ef47p-35},
    {0x1.a87d0ed590776p-35, 0x1.4f0af95764afp-33},
    {0x1.185c78e4e05cp-35, 0x1.186935cd16549p-33},
    {0x1.2db67a41028e1p-35, 0x1.a8cdef548df4ep-35},
    {0x1.3b4411bad2a45p-35, 0x1.ab273dddc1effp-35},
    {0x1.a1a8441e0532fp-35, 0x1.0fad4fae79511p-34},
    {0x1.2a9da7ba53609p-36, 0x1.58db1e2987786p-35},
    {0x1.9e461ffe74c9cp-36, 0x1.46537befe0a53p-33},
    {0x1.c8ac644aa62f8p-35, 0x1.3e65ea9429fbp-33},
    {0x1.69aaeb132719fp-35, 0x1.103344d717e3ep-34},
    {0x1.82091f2f674cfp-35, 0x1.10b69e8c187aap-34},
    {0x1.bb2060c5da13ap-36, 0x1.6c764ca829b43p-34},
    {-0x1.6fbfc2ed3d98ep-32, 0x1.a6c6729153038p-34},
    {-0x1.4dbb1ad3e091fp-35, 0x1.89b85e7a4cd7cp-33},
    {-0x1.a7ead9b88926p-36, 0x1.42034130c7e45p-33},
    {0x1.4dd3bee25d30ap-35, 0x1.03fbcb1b08b84p-34},
    {0x1.04339ba43b522p-35, 0x1.591f7d0c5f2eep-35},
    {0x1.a94ebb6b88396p-35, 0x1.2efb2a95c19cap-34},
    {0x1.823a2faba3de2p-36, 0x1.019b3de6573b9p-35},
    {0x1.52d29aa3e9a37p-35, 0x1.2aec51334dca8p-33},
    {0x1.d728b35353c58p-37, 0x1.3d888913419f4p-33},
    {0x1.ee48d44cdf206p-36, 0x1.6c96f07f04c15p-35},
    {0x1.1d2c7515d0cabp-35, 0x1.8d9a40055e9cep-35},
    {0x1.fe231e68319dp-36, 0x1.a2babeb245879p-35},
    {-0x1.0125c04511c2fp-32, 0x1.cdec3da4e3dcbp-35},
    {-0x1.3ad86aee80028p-34, 0x1.10622b011f743p-34},
    {-0x1.37c9cbbaea548p-34, 0x1.8a73ae1582155p-34},
    {0x1.2cb638779318fp-35, 0x1.eae789ff48ec3p-35},
    {0x1.2f7d1165b267dp-35, 0x1.b009b9c775c0ep-35},
    {0x1.7595689fbd19bp-35, 0x1.0f1493d45a6d5p-34},
    {0x1.6c40ec87a296ep-36, 0x1.001bf8d85616ap-35},
    {0x1.87dec67083036p-35, 0x1.2bab7253fdfbdp-33},
    {0x1.f973fbd239ecbp-35, 0x1.53d920a53b5dfp-33},
    {0x1.f772a5cb785f8p-36, 0x1.5a0df6fe735ecp-35},
    {0x1.1bb49a10db464p-35, 0x1.7ee52dc30392p-35},
    {0x1.5109cea75c9aep-35, 0x1.fbec6757e2ddcp-35},
    {-0x1.0226328bb1f8ep-35, 0x1.632f7e5ff246cp-35},
    {0x1.6beb2dc7c6a4p-36, 0x1.bc939161a507ap-33},
    {0x1.6beb2dc7c6a4p-36, 0x1.bc939161a507ap-33},
};

TEST(TimingService, PinnedLutResultsAreBitIdentical) {
    auto repo = library_repo();
    TimingService service(*repo, pinned_serve_options());
    const std::vector<TimingQuery> batch = pinned_batch();
    // First pass builds (and warms) every surface; the pinned values are
    // the warm answers.
    service.run_batch(batch);
    const std::vector<TimingResult> r = service.run_batch(batch);
    ASSERT_EQ(r.size(), batch.size());
    ASSERT_EQ(std::size(kPinnedLut), r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
        ASSERT_TRUE(r[i].valid) << i << ": " << r[i].error;
        EXPECT_EQ(r[i].path, ResultPath::kLut) << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r[i].delay),
                  std::bit_cast<std::uint64_t>(kPinnedLut[i].delay))
            << i << ": delay " << std::hexfloat << r[i].delay;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r[i].slew),
                  std::bit_cast<std::uint64_t>(kPinnedLut[i].slew))
            << i << ": slew " << std::hexfloat << r[i].slew;
    }
}

// A misconfigured service must refuse to construct instead of serving
// garbage later.
TEST(TimingService, RejectsMalformedServeOptions) {
    auto repo = seeded_repo();
    const auto expect_throws = [&](const char* name,
                                   const std::function<void(ServeOptions&)>&
                                       mutate) {
        ServeOptions opt = test_serve_options();
        mutate(opt);
        EXPECT_THROW(TimingService(*repo, opt), ModelError) << name;
    };
    expect_throws("empty slew knots",
                  [](ServeOptions& o) { o.slew_knots.clear(); });
    expect_throws("single-knot axis",
                  [](ServeOptions& o) { o.slew_knots = {80e-12}; });
    expect_throws("non-monotone slew knots", [](ServeOptions& o) {
        o.slew_knots = {80e-12, 50e-12};
    });
    expect_throws("duplicate load knots", [](ServeOptions& o) {
        o.load_knots = {4e-15, 4e-15};
    });
    expect_throws("negative slew knot", [](ServeOptions& o) {
        o.slew_knots = {-20e-12, 80e-12};
    });
    expect_throws("skew knots not bracketing 0", [](ServeOptions& o) {
        o.skew_knots = {0.5, 1.0, 1.5};
    });
    expect_throws("3-pin skew knots not bracketing 0", [](ServeOptions& o) {
        o.skew_knots_mis3 = {-2.0, -1.0, -0.5};
    });
    expect_throws("seconds-valued skew knots (pre-normalized schema)",
                  [](ServeOptions& o) {
                      o.skew_knots = {-100e-12, 0.0, 100e-12};
                  });
    expect_throws("NaN knot", [](ServeOptions& o) {
        o.load_knots = {2e-15, std::numeric_limits<double>::quiet_NaN()};
    });
    expect_throws("zero dt", [](ServeOptions& o) { o.dt = 0.0; });
    expect_throws("negative settle",
                  [](ServeOptions& o) { o.settle = -1e-9; });
}

}  // namespace
}  // namespace mcsm::serve
