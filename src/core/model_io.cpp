#include "core/model_io.h"

#include <fstream>
#include <ostream>

#include "common/error.h"
#include "common/fp_text.h"
#include "lut/table_io.h"

namespace mcsm::core {

void write_model(std::ostream& os, const CsmModel& model) {
    model.check_consistent();
    os << "csmmodel v1\n";
    os << "kind " << to_string(model.kind) << '\n';
    os << "cell " << model.cell_name << '\n';
    os << "vdd ";
    write_exact_double(os, model.vdd);
    os << '\n';
    os << "dv ";
    write_exact_double(os, model.dv_margin);
    os << '\n';
    os << "temp ";
    write_exact_double(os, model.temp_c);
    os << '\n';
    os << "pins " << model.pins.size();
    for (const auto& p : model.pins) os << ' ' << p;
    os << '\n';
    os << "fixed " << model.fixed_pins.size();
    for (std::size_t i = 0; i < model.fixed_pins.size(); ++i) {
        os << ' ' << model.fixed_pins[i] << ' ';
        write_exact_double(os, model.fixed_values[i]);
    }
    os << '\n';
    os << "internals " << model.internals.size();
    for (const auto& n : model.internals) os << ' ' << n;
    os << '\n';

    lut::write_table(os, model.i_out);
    for (const auto& t : model.i_internal) lut::write_table(os, t);
    for (const auto& t : model.c_miller) lut::write_table(os, t);
    lut::write_table(os, model.c_out);
    for (const auto& t : model.c_internal) lut::write_table(os, t);
    for (const auto& t : model.c_miller_internal) lut::write_table(os, t);
    for (const auto& t : model.c_in) lut::write_table(os, t);
    os << "endmodel\n";
}

void save_model(const std::string& path, const CsmModel& model) {
    std::ofstream os(path);
    require(os.good(), "save_model: cannot open " + path);
    write_model(os, model);
    require(os.good(), "save_model: write failed for " + path);
}

}  // namespace mcsm::core
