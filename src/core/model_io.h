// Plain-text export of characterized CSM models: a human-readable,
// diff-able dump with every double written as a round-trip-exact hexfloat.
// It is write-only -- nothing in the library reads it back. Models are
// stored and served through the binary store (serve/model_store) and the
// mmap pack (serve/mapped_store).
#ifndef MCSM_CORE_MODEL_IO_H
#define MCSM_CORE_MODEL_IO_H

#include <iosfwd>
#include <string>

#include "core/model.h"

namespace mcsm::core {

void write_model(std::ostream& os, const CsmModel& model);

// File convenience wrapper; overwrites `path`, throws ModelError when it
// cannot be written.
void save_model(const std::string& path, const CsmModel& model);

}  // namespace mcsm::core

#endif  // MCSM_CORE_MODEL_IO_H
