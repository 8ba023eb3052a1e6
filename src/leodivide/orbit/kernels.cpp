#include "leodivide/orbit/kernels.hpp"

#include <bit>
#include <cstring>

#include "leodivide/simd/lanes.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

// This is the only TU that instantiates SIMD code, and everything
// width-dependent stays in the anonymous namespace: the build may give this
// file wider target flags (see LEODIVIDE_KERNEL_NATIVE) without risking an
// ODR merge of flag-dependent inline code from other TUs. The `_scalar`
// twins live in kernels_scalar.cpp, compiled with auto-vectorization off,
// so they remain a genuine element-at-a-time reference.

namespace leodivide::orbit {

namespace {

constexpr std::size_t kW = simd::kPreferredLanes;

#ifdef LEODIVIDE_SIMD_VECTOR_EXT
/// Bitmask of the W comparison lanes: bit j is set iff lane j is all-ones.
/// Lane-by-lane extraction from a wide register compiles to a chain of
/// vpextrq + shifts that costs more than the dot product itself, so on x86
/// this is one movemask instruction (it reads the lanes' sign bits, which
/// a comparison result sets exactly); elsewhere the portable per-lane loop
/// remains.
template <std::size_t W>
unsigned mask_bits(typename simd::DoubleLanes<W>::M m) {
#if defined(__AVX__)
  if constexpr (W == 4) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(std::bit_cast<__m256d>(m)));
  }
#endif
#if defined(__SSE2__)
  if constexpr (W == 2) {
    return static_cast<unsigned>(
        _mm_movemask_pd(std::bit_cast<__m128d>(m)));
  }
#endif
  unsigned bits = 0;
  for (std::size_t j = 0; j < W; ++j) {
    bits |= (m[j] != 0 ? 1u : 0u) << j;
  }
  return bits;
}

/// 0/1-byte expansion of every W-bit mask value, so visible_mask can turn
/// a lane bitmask into its W output bytes with one table load + one store.
template <std::size_t W>
struct MaskBytesTable {
  unsigned char b[std::size_t(1) << W][W];
  constexpr MaskBytesTable() : b() {
    for (std::size_t m = 0; m < (std::size_t(1) << W); ++m) {
      for (std::size_t j = 0; j < W; ++j) {
        b[m][j] = (m >> j) & 1 ? 1 : 0;
      }
    }
  }
};
template <std::size_t W>
constexpr MaskBytesTable<W> kMaskBytes{};
#endif

// Width-generic kernel bodies. They are templates so the scalar
// (W == 1) instantiation never touches the vector branches — `if constexpr`
// only discards statements inside a template.

template <std::size_t W>
void visible_mask_impl(double cx, double cy, double cz, const double* ux,
                       const double* uy, const double* uz, std::size_t n,
                       double cos_psi, std::uint8_t* out_mask) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    using L = simd::DoubleLanes<W>;
    using V = typename L::V;
    const V vcx = L::splat(cx);
    const V vcy = L::splat(cy);
    const V vcz = L::splat(cz);
    const V vthresh = L::splat(cos_psi);
    for (; i + W <= n; i += W) {
      const V dot = vcx * L::load(ux + i) + vcy * L::load(uy + i) +
                    vcz * L::load(uz + i);
      // One table load + one W-byte store of the 0/1 mask per W satellites.
      const unsigned bits = mask_bits<W>(dot >= vthresh);
      std::memcpy(out_mask + i, kMaskBytes<W>.b[bits], W);
    }
  }
  for (; i < n; ++i) {
    out_mask[i] = cx * ux[i] + cy * uy[i] + cz * uz[i] >= cos_psi ? 1 : 0;
  }
}

template <std::size_t W>
void rotate_about_z_impl(const double* x, const double* y, double c, double s,
                         std::size_t n, double* out_x, double* out_y) {
  std::size_t i = 0;
  if constexpr (W > 1) {
    using L = simd::DoubleLanes<W>;
    using V = typename L::V;
    const V vc = L::splat(c);
    const V vs = L::splat(s);
    for (; i + W <= n; i += W) {
      // Both inputs loaded before either store, so in-place rotation
      // (out_x == x, out_y == y) stays well-defined.
      const V vx = L::load(x + i);
      const V vy = L::load(y + i);
      const V ox = vx * vc + vy * vs;
      const V oy = -vx * vs + vy * vc;
      L::store(out_x + i, ox);
      L::store(out_y + i, oy);
    }
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    out_x[i] = xi * c + yi * s;
    out_y[i] = -xi * s + yi * c;
  }
}

}  // namespace

std::size_t kernel_lanes() noexcept { return kW; }

const char* kernel_backend() noexcept {
  if constexpr (kW == 8) {
    return "vec8";
  } else if constexpr (kW == 4) {
    return "vec4";
  } else if constexpr (kW == 2) {
    return "vec2";
  } else {
    return "scalar";
  }
}

void visible_mask(double cx, double cy, double cz, const double* ux,
                  const double* uy, const double* uz, std::size_t n,
                  double cos_psi, std::uint8_t* out_mask) {
  visible_mask_impl<kW>(cx, cy, cz, ux, uy, uz, n, cos_psi, out_mask);
}

void rotate_about_z(const double* x, const double* y, double c, double s,
                    std::size_t n, double* out_x, double* out_y) {
  rotate_about_z_impl<kW>(x, y, c, s, n, out_x, out_y);
}

}  // namespace leodivide::orbit
