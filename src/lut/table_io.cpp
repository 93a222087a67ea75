#include "lut/table_io.h"

#include <ostream>

#include "common/fp_text.h"

namespace mcsm::lut {

void write_table(std::ostream& os, const NdTable& table) {
    os << "table " << (table.name().empty() ? "_" : table.name()) << ' '
       << table.rank() << '\n';
    for (const Axis& ax : table.axes()) {
        os << "axis " << (ax.name().empty() ? "_" : ax.name()) << ' '
           << ax.size();
        for (double k : ax.knots()) {
            os << ' ';
            write_exact_double(os, k);
        }
        os << '\n';
    }
    os << "values " << table.value_count() << '\n';
    std::size_t col = 0;
    for (double v : table.values()) {
        write_exact_double(os, v);
        os << ((++col % 8 == 0) ? '\n' : ' ');
    }
    if (col % 8 != 0) os << '\n';
    os << "end\n";
}

}  // namespace mcsm::lut
