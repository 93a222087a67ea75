// Model-side twins of the golden scenarios in src/engine: the same stimuli
// and loads, but with CSM devices in place of transistor-level cells.
#ifndef MCSM_CORE_MODEL_SCENARIOS_H
#define MCSM_CORE_MODEL_SCENARIOS_H

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/csm_device.h"
#include "core/model.h"
#include "engine/crosstalk.h"
#include "spice/tran_solver.h"
#include "wave/waveform.h"

namespace mcsm::core {

// Output load for model testbenches: a linear cap plus `fanout_count`
// receiver input capacitances taken from `receiver`'s 1-D c_in table (the
// paper's treatment of fanout loads), plus an optional RC pi network
// (active when pi_r > 0; the fanout caps then sit at the far end).
struct ModelLoadSpec {
    double cap = 0.0;
    int fanout_count = 0;
    const CsmModel* receiver = nullptr;
    double pi_c1 = 0.0;
    double pi_r = 0.0;
    double pi_c2 = 0.0;
};

// Single CSM cell driven by ideal sources: the model twin of
// engine::GoldenCell.
class ModelCell {
public:
    ModelCell(const CsmModel& model,
              const std::unordered_map<std::string, wave::Waveform>& inputs,
              const ModelLoadSpec& load);

    spice::TranResult run(const spice::TranOptions& options);

    int out_node() const { return out_node_; }
    // Far-end node of the pi load (-1 when no pi load was requested).
    int far_node() const { return far_node_; }
    int internal_node(std::size_t j) const { return internal_nodes_[j]; }
    spice::Circuit& circuit() { return circuit_; }

private:
    spice::Circuit circuit_;
    int out_node_ = -1;
    int far_node_ = -1;
    std::vector<int> internal_nodes_;
};

// Model twin of engine::GoldenCrosstalk: SIS-CSM inverter drivers on the
// victim and aggressor lines, the same coupling/ground caps, a CSM NOR2
// (complete MCSM or MIS baseline) receiving the victim net, and FO receiver
// caps on the NOR2 output.
class ModelCrosstalk {
public:
    ModelCrosstalk(const CsmModel& inv_model, const CsmModel& nor_model,
                   const engine::CrosstalkConfig& cfg, double t_inject);

    spice::TranResult run(const spice::TranOptions& options);

    int victim_net() const { return victim_net_; }
    int nor_out() const { return nor_out_; }
    const wave::Waveform& victim_input() const { return victim_input_; }
    spice::Circuit& circuit() { return circuit_; }

private:
    spice::Circuit circuit_;
    wave::Waveform victim_input_;
    int victim_net_ = -1;
    int nor_out_ = -1;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_MODEL_SCENARIOS_H
