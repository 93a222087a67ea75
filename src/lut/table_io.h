// Plain-text export of an NdTable, the table section of the human-readable
// model export (core::write_model). Write-only: nothing reads it back.
#ifndef MCSM_LUT_TABLE_IO_H
#define MCSM_LUT_TABLE_IO_H

#include <iosfwd>

#include "lut/ndtable.h"

namespace mcsm::lut {

// Format:
//   table <name> <rank>
//   axis <name> <n> <knot_0> ... <knot_{n-1}>     (rank lines)
//   values <count>
//   <v_0> ... <v_{count-1}>                        (8 per line)
//   end
// Empty names print as "_". Doubles are written as C99 hexfloat literals,
// so the text carries the exact bits.
void write_table(std::ostream& os, const NdTable& table);

}  // namespace mcsm::lut

#endif  // MCSM_LUT_TABLE_IO_H
