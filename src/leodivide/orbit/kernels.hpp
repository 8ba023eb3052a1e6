#pragma once
// SIMD kernels for the two hottest inner loops of the pipeline: the
// visibility cos-threshold test behind BeamScheduler (a cell sees a
// satellite iff the dot of their unit radials is >= cos psi), run over the
// contiguous bucket-ordered spans of orbit::VisIndex, and the batched
// Earth-rotation applied to every satellite per epoch in propagate_all.
//
// Every kernel has a `_scalar` twin that is the retained reference
// implementation, and the dispatching entry point is guaranteed
// bit-identical to it: per-lane vector arithmetic is IEEE-identical to the
// scalar expression (the build disables FP contraction), lane order is
// fixed, and the golden suite in tests/test_simd.cpp bit-compares the two
// on adversarial inputs (poles, date line, exact-threshold grazing
// elevations, tail lanes). The SIMD code itself lives only in kernels.cpp —
// the one TU that may carry wider target flags — so nothing flag-dependent
// is ever inlined into other TUs. The twins live in kernels_scalar.cpp,
// compiled with compiler auto-vectorization disabled and baseline target
// flags, so `_scalar` means genuinely one element per iteration — both the
// bit-identity oracle and the honest denominator for the bench ratio.

#include <cstddef>
#include <cstdint>

namespace leodivide::orbit {

/// Lane width compiled into the kernels TU (1 = scalar fallback).
[[nodiscard]] std::size_t kernel_lanes() noexcept;

/// Human-readable backend tag for bench labels, e.g. "vec4" or "scalar".
[[nodiscard]] const char* kernel_backend() noexcept;

/// Dense visibility mask over n contiguous satellites in SoA layout:
/// out_mask[i] = 1 iff cx*ux[i] + cy*uy[i] + cz*uz[i] >= cos_psi, else 0.
/// Bit-identical to visible_mask_scalar.
void visible_mask(double cx, double cy, double cz, const double* ux,
                  const double* uy, const double* uz, std::size_t n,
                  double cos_psi, std::uint8_t* out_mask);

/// Scalar reference for visible_mask.
void visible_mask_scalar(double cx, double cy, double cz, const double* ux,
                         const double* uy, const double* uz, std::size_t n,
                         double cos_psi, std::uint8_t* out_mask);

/// Batched epoch rotation about the Earth axis, the expression from
/// ecef_position verbatim per element:
///   out_x[i] =  x[i] * c + y[i] * s
///   out_y[i] = -x[i] * s + y[i] * c
/// In-place operation (out_x == x, out_y == y) is supported: both inputs of
/// an element are loaded before either output is stored. Bit-identical to
/// rotate_about_z_scalar.
void rotate_about_z(const double* x, const double* y, double c, double s,
                    std::size_t n, double* out_x, double* out_y);

/// Scalar reference for rotate_about_z.
void rotate_about_z_scalar(const double* x, const double* y, double c,
                           double s, std::size_t n, double* out_x,
                           double* out_y);

}  // namespace leodivide::orbit
