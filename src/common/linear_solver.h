// In-place LU factorization with partial pivoting for MNA systems.
#ifndef MCSM_COMMON_LINEAR_SOLVER_H
#define MCSM_COMMON_LINEAR_SOLVER_H

#include <vector>

#include "common/dense_matrix.h"

namespace mcsm {

// Solves A x = b by LU with partial pivoting (on copies of A and b).
// Throws NumericalError when a pivot falls below pivot_floor (singular
// system up to roundoff).
std::vector<double> solve_lu(DenseMatrix a, std::vector<double> b,
                             double pivot_floor = 1e-30);

}  // namespace mcsm

#endif  // MCSM_COMMON_LINEAR_SOLVER_H
