#include "serve/repository.h"

#include <charconv>
#include <filesystem>
#include <utility>

#include "analysis/model_audit.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_store.h"

namespace mcsm::serve {

namespace fs = std::filesystem;

std::string Corner::tag() const {
    if (nominal()) return {};
    // Shortest round-trip form: two corners share a tag only when their
    // doubles are equal, and the digits people type stay as typed
    // (1.08 -> "1.08", 85.0 -> "85").
    char buf[64];
    char* p = buf;
    p = std::to_chars(p, buf + sizeof buf, vdd > 0.0 ? vdd : 0.0).ptr;
    *p++ = 'V';
    p = std::to_chars(p, buf + sizeof buf, temp_c).ptr;
    *p++ = 'C';
    return std::string(buf, p);
}

std::string ModelKey::to_string() const {
    std::string s = cell;
    s += '.';
    s += core::to_string(kind);
    s += '.';
    for (std::size_t i = 0; i < pins.size(); ++i) {
        if (i) s += '-';
        s += pins[i];
    }
    const std::string tag = corner.tag();
    if (!tag.empty()) {
        s += '@';
        s += tag;
    }
    return s;
}

ModelKey ModelKey::arc(std::string cell, std::vector<std::string> pins,
                       Corner corner) {
    ModelKey key;
    key.cell = std::move(cell);
    key.kind = pins.size() == 1 ? core::ModelKind::kSis
                                : core::ModelKind::kMcsm;
    key.pins = std::move(pins);
    key.corner = corner;
    return key;
}

namespace {

// Orphaned "*.tmp.*" droppings (writer died between write and rename) are
// removed on repository construction, but only once they are old enough
// that no live writer can still own them: a characterization run filling
// the store can legitimately keep temps in flight for minutes.
constexpr long kOrphanMinAgeS = 3600;

}  // namespace

ModelRepository::ModelRepository(const cells::CellLibrary* lib,
                                 RepositoryOptions options)
    : lib_(lib), options_(std::move(options)) {
    if (!options_.dir.empty()) {
        const std::size_t removed =
            clean_orphan_temps(options_.dir, kOrphanMinAgeS);
        if (removed > 0)
            obs::counter("serve.store.orphans_cleaned")
                .add(static_cast<long long>(removed));
    }
}

std::string ModelRepository::binary_path(const ModelKey& key) const {
    if (options_.dir.empty()) return {};
    return options_.dir + "/" + key.to_string() + kBinaryModelExt;
}

std::shared_ptr<const core::CsmModel> ModelRepository::get(
    const ModelKey& key) {
    static obs::Counter& hits = obs::counter("serve.model.hit");
    static obs::Counter& misses = obs::counter("serve.model.miss");
    static obs::Counter& waits = obs::counter("serve.model.wait");
    CacheOutcome outcome = CacheOutcome::kHit;
    ModelPtr result = cache_.get_or_produce(
        key.to_string(),
        [&] {
            ModelPtr model = load_or_characterize(key);
            // Pre-flight audit on every production (pack or store load, or
            // fresh characterization): a defective model is
            // rejected here, before anything is served from it, and the
            // failure is never cached (single-flight failure contract).
            if (options_.lint_on_load)
                analysis::audit_model(*model).require_clean(
                    "ModelRepository[" + key.to_string() + "]");
            return model;
        },
        &outcome);
    switch (outcome) {
        case CacheOutcome::kHit: hits.add(); break;
        case CacheOutcome::kMiss: misses.add(); break;
        case CacheOutcome::kWait: waits.add(); break;
    }
    return result;
}

ModelRepository::ModelPtr ModelRepository::load_or_characterize(
    const ModelKey& key) {
    if (options_.pack) {
        // Pack hit: parse the packed v2 envelope into an owned model (the
        // exact path needs real tables); the in-memory cache then serves
        // every later get(). Absent keys fall through to the per-file
        // stores.
        const std::shared_ptr<const MappedPack> pack =
            options_.pack->current();
        if (pack->model_check(key.to_string()) != 0) {
            obs::counter("serve.model.pack_loads").add();
            return std::make_shared<const core::CsmModel>(
                pack->materialize_model(key.to_string()));
        }
    }
    if (!options_.dir.empty()) {
        std::error_code ec;
        const std::string bin = binary_path(key);
        if (fs::exists(bin, ec)) {
            obs::counter("serve.model.store_loads").add();
            return std::make_shared<const core::CsmModel>(
                load_model_binary(bin));
        }
    }

    require(lib_ != nullptr, "ModelRepository: model " + key.to_string() +
                                 " not in store and no cell library "
                                 "attached for characterization");
    ++characterize_count_;
    obs::counter("serve.model.characterize").add();
    const obs::Span span("serve.characterize", key.to_string());
    const obs::ScopedLatency latency(
        obs::histogram("serve.characterize_ns"));
    const cells::CellLibrary& lib = library_for(key.corner);
    const core::Characterizer chr(lib);
    const core::CharOptions& copt = key.pins.size() >= 3
                                        ? options_.char_options_mis3
                                        : options_.char_options;
    core::CsmModel m = chr.characterize(key.cell, key.kind, key.pins, copt);
    if (!options_.dir.empty() && options_.write_back) {
        fs::create_directories(options_.dir);
        save_model_binary(binary_path(key), m);
    }
    return std::make_shared<const core::CsmModel>(std::move(m));
}

const cells::CellLibrary& ModelRepository::library_for(const Corner& corner) {
    require(lib_ != nullptr,
            "ModelRepository: no cell library attached for characterization");
    if (corner.nominal()) return *lib_;
    const std::string tag = corner.tag();
    MutexLock lock(corner_mutex_);
    auto it = corner_libs_.find(tag);
    if (it == corner_libs_.end()) {
        it = corner_libs_
                 .emplace(tag, std::make_unique<CornerLibrary>(
                                   tech::apply_environment(
                                       lib_->tech(), corner.vdd,
                                       corner.temp_c)))
                 .first;
    }
    return it->second->lib;
}

void ModelRepository::put(const ModelKey& key, core::CsmModel model) {
    model.check_consistent();
    if (options_.lint_on_load)
        analysis::audit_model(model).require_clean(
            "ModelRepository::put[" + key.to_string() + "]");
    auto ptr = std::make_shared<const core::CsmModel>(std::move(model));
    cache_.put(key.to_string(), ptr);
    if (!options_.dir.empty() && options_.write_back) {
        fs::create_directories(options_.dir);
        save_model_binary(binary_path(key), *ptr);
    }
}

bool ModelRepository::cached(const ModelKey& key) const {
    return cache_.ready(key.to_string());
}

std::size_t ModelRepository::cached_count() const {
    return cache_.ready_count();
}

}  // namespace mcsm::serve
