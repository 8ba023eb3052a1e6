#include "leodivide/orbit/kernels.hpp"

// The retained scalar references: one element per loop iteration, exactly
// the expressions the pre-SIMD scheduler and propagator ran. This TU is
// compiled with compiler auto-vectorization disabled and only the baseline
// target flags (see src/CMakeLists.txt), so the `_scalar` entry points stay
// a genuine element-at-a-time reference — both the bit-identity oracle for
// tests/test_simd.cpp and the honest denominator for the bench ratio in
// BENCH_simd.json. The arithmetic is the same expression, in the same
// order, as the vector kernels' per-lane operations; with -ffp-contract=off
// set globally the results are bit-identical by construction.

namespace leodivide::orbit {

void visible_mask_scalar(double cx, double cy, double cz, const double* ux,
                         const double* uy, const double* uz, std::size_t n,
                         double cos_psi, std::uint8_t* out_mask) {
  for (std::size_t i = 0; i < n; ++i) {
    out_mask[i] = cx * ux[i] + cy * uy[i] + cz * uz[i] >= cos_psi ? 1 : 0;
  }
}

void rotate_about_z_scalar(const double* x, const double* y, double c,
                           double s, std::size_t n, double* out_x,
                           double* out_y) {
  for (std::size_t i = 0; i < n; ++i) {
    // Both inputs loaded before either store: in-place rotation
    // (out_x == x, out_y == y) stays well-defined.
    const double xi = x[i];
    const double yi = y[i];
    out_x[i] = xi * c + yi * s;
    out_y[i] = -xi * s + yi * c;
  }
}

}  // namespace leodivide::orbit
