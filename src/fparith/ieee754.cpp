#include "fparith/ieee754.hpp"

#include <cstring>

#include "common/error.hpp"

namespace rcs::fparith {

namespace {

using u64 = std::uint64_t;
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
using u128 = unsigned __int128;  // GCC/Clang extension; fine for this port
#pragma GCC diagnostic pop

constexpr u64 kSignMask = 0x8000000000000000ULL;
constexpr u64 kExpMask = 0x7ff0000000000000ULL;
constexpr u64 kFracMask = 0x000fffffffffffffULL;
constexpr u64 kQuietNan = 0x7ff8000000000000ULL;
constexpr int kBias = 1023;
constexpr int kFracBits = 52;

struct Unpacked {
  bool sign;       // true = negative
  int exp;         // unbiased exponent of the leading significand bit
  u64 sig;         // significand, MSB at bit kFracBits for finite nonzero
  enum class Cls { Zero, Finite, Inf, NaN } cls;
};

int highest_bit(u64 x) {
  RCS_DASSERT(x != 0);
  return 63 - __builtin_clzll(x);
}

int highest_bit128(u128 x) {
  const u64 hi = static_cast<u64>(x >> 64);
  if (hi != 0) return 64 + highest_bit(hi);
  return highest_bit(static_cast<u64>(x));
}

Unpacked unpack(u64 bits) {
  Unpacked u;
  u.sign = (bits & kSignMask) != 0;
  const int expf = static_cast<int>((bits & kExpMask) >> kFracBits);
  const u64 frac = bits & kFracMask;
  if (expf == 0x7ff) {
    u.cls = (frac == 0) ? Unpacked::Cls::Inf : Unpacked::Cls::NaN;
    u.exp = 0;
    u.sig = frac;
    return u;
  }
  if (expf == 0) {
    if (frac == 0) {
      u.cls = Unpacked::Cls::Zero;
      u.exp = 0;
      u.sig = 0;
      return u;
    }
    // Subnormal: value = frac * 2^-1074. Normalize so the MSB sits at bit 52;
    // with sig scaled that way, value = sig * 2^(exp - 52) where
    // exp = highest_bit(frac) - 1074 + 52 - 52 = h - 1074 ... derived below.
    // value = sig * 2^(exp - 52) = frac*2^(52-h) * 2^(h-1074-52)
    //       = frac * 2^-1074.
    const int h = highest_bit(frac);
    u.cls = Unpacked::Cls::Finite;
    u.sig = frac << (kFracBits - h);
    u.exp = h - 1074;
    return u;
  }
  u.cls = Unpacked::Cls::Finite;
  u.sig = frac | (1ULL << kFracBits);
  u.exp = expf - kBias;
  return u;
}

u64 pack_zero(bool sign) { return sign ? kSignMask : 0; }

u64 pack_inf(bool sign) { return (sign ? kSignMask : 0) | kExpMask; }

/// Round an exact value `sig * 2^exp` (sig != 0) to binary64 with
/// round-to-nearest-even, handling normal, subnormal, overflow and underflow
/// uniformly (in the style of softfloat's roundPackToF64).
u64 round_pack(bool sign, int exp, u128 sig) {
  RCS_DASSERT(sig != 0);
  const int h = highest_bit128(sig);
  const int lead_exp = exp + h;  // unbiased exponent of the value
  // Quantum exponent: the weight of the result's LSB.
  const int qe = (lead_exp - kFracBits >= -1074) ? lead_exp - kFracBits : -1074;
  const int shift = qe - exp;  // bits of sig below the quantum

  u128 m;
  bool round_up = false;
  if (shift <= 0) {
    // The exact value already aligns at or above the quantum: exact.
    RCS_DASSERT(-shift < 128 - h);
    m = sig << (-shift);
  } else if (shift >= 128) {
    // Entire significand is below half an ulp of the smallest subnormal.
    m = 0;  // sticky-only: rounds to zero under RNE
  } else {
    m = sig >> shift;
    const u128 rem = sig - (m << shift);
    const u128 half = u128(1) << (shift - 1);
    if (rem > half) {
      round_up = true;
    } else if (rem == half) {
      round_up = (m & 1) != 0;  // ties to even
    }
  }
  if (round_up) m += 1;

  if (m == 0) return pack_zero(sign);

  if (qe == -1074 && m < (u128(1) << kFracBits)) {
    // Subnormal result (or zero, handled above).
    return (sign ? kSignMask : 0) | static_cast<u64>(m);
  }

  // m is in [2^52, 2^53]; a value of exactly 2^53 means rounding carried.
  int res_exp = qe + kFracBits;  // unbiased exponent of leading bit
  if (m == (u128(1) << (kFracBits + 1))) {
    m >>= 1;
    res_exp += 1;
  }
  // Subnormal that rounded up to the smallest normal: m == 2^52 with
  // qe == -1074 encodes naturally below because res_exp == -1022.
  if (res_exp > 1023) return pack_inf(sign);  // overflow rounds to infinity
  const int biased = res_exp + kBias;
  RCS_DASSERT(biased >= 1 && biased <= 2046);
  return (sign ? kSignMask : 0) |
         (static_cast<u64>(biased) << kFracBits) |
         (static_cast<u64>(m) & kFracMask);
}

bool is_nan(u64 bits) {
  return (bits & kExpMask) == kExpMask && (bits & kFracMask) != 0;
}

}  // namespace

std::uint64_t to_bits(double x) {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(x));
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

double from_bits(std::uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

double add(double da, double db) {
  const u64 abits = to_bits(da);
  const u64 bbits = to_bits(db);
  Unpacked a = unpack(abits);
  Unpacked b = unpack(bbits);
  using Cls = Unpacked::Cls;

  if (a.cls == Cls::NaN || b.cls == Cls::NaN) return from_bits(kQuietNan);
  if (a.cls == Cls::Inf && b.cls == Cls::Inf) {
    if (a.sign != b.sign) return from_bits(kQuietNan);  // inf - inf
    return from_bits(pack_inf(a.sign));
  }
  if (a.cls == Cls::Inf) return from_bits(pack_inf(a.sign));
  if (b.cls == Cls::Inf) return from_bits(pack_inf(b.sign));
  if (a.cls == Cls::Zero && b.cls == Cls::Zero) {
    // (+0)+(+0)=+0, (-0)+(-0)=-0, mixed = +0 under round-to-nearest.
    return from_bits(pack_zero(a.sign && b.sign));
  }
  if (a.cls == Cls::Zero) return from_bits(bbits);
  if (b.cls == Cls::Zero) return from_bits(abits);

  // Order so |A| has the larger exponent (ties: larger significand).
  if (b.exp > a.exp || (b.exp == a.exp && b.sig > a.sig)) {
    std::swap(a, b);
  }
  const int diff = a.exp - b.exp;
  // Guard region: 3 bits; clamp huge alignments, smaller operand becomes
  // pure sticky (correct under RNE — see tests for boundary cases).
  constexpr int kGuard = 3;
  const int clamp = diff < 70 ? diff : 70;
  const u128 A = u128(a.sig) << (clamp + kGuard);
  u128 B;
  if (diff <= 70) {
    B = u128(b.sig) << kGuard;
  } else {
    B = 1;  // sticky
  }
  const int exp_out = a.exp - kFracBits - clamp - kGuard;

  u128 S;
  bool sign;
  if (a.sign == b.sign) {
    S = A + B;
    sign = a.sign;
  } else {
    RCS_DASSERT(A >= B);
    S = A - B;
    sign = a.sign;
    if (S == 0) return from_bits(pack_zero(false));  // exact cancellation: +0
  }
  return from_bits(round_pack(sign, exp_out, S));
}

double sub(double a, double b) { return add(a, -b); }

double mul(double da, double db) {
  const u64 abits = to_bits(da);
  const u64 bbits = to_bits(db);
  const Unpacked a = unpack(abits);
  const Unpacked b = unpack(bbits);
  using Cls = Unpacked::Cls;
  const bool sign = a.sign != b.sign;

  if (a.cls == Cls::NaN || b.cls == Cls::NaN) return from_bits(kQuietNan);
  if (a.cls == Cls::Inf || b.cls == Cls::Inf) {
    if (a.cls == Cls::Zero || b.cls == Cls::Zero)
      return from_bits(kQuietNan);  // 0 * inf
    return from_bits(pack_inf(sign));
  }
  if (a.cls == Cls::Zero || b.cls == Cls::Zero)
    return from_bits(pack_zero(sign));

  // Exact product: sig_a * sig_b * 2^(ea + eb - 104).
  const u128 prod = u128(a.sig) * u128(b.sig);
  const int exp_out = a.exp + b.exp - 2 * kFracBits;
  return from_bits(round_pack(sign, exp_out, prod));
}

int compare(double da, double db) {
  const u64 a = to_bits(da);
  const u64 b = to_bits(db);
  if (is_nan(a) || is_nan(b)) return 2;
  // Map to a monotone unsigned ordering: flip all bits for negatives, flip
  // the sign bit for positives (the classic radix-sortable float key).
  auto key = [](u64 x) -> u64 {
    if (x & kSignMask) return ~x;
    return x | kSignMask;
  };
  const u64 ka = key(a);
  const u64 kb = key(b);
  // -0 and +0 compare equal.
  const bool a_zero = (a & ~kSignMask) == 0;
  const bool b_zero = (b & ~kSignMask) == 0;
  if (a_zero && b_zero) return 0;
  if (ka < kb) return -1;
  if (ka > kb) return 1;
  return 0;
}

double min(double a, double b) {
  const int c = compare(a, b);
  if (c == 2) {
    if (is_nan(to_bits(a)) && is_nan(to_bits(b))) return from_bits(kQuietNan);
    return is_nan(to_bits(a)) ? b : a;  // minNum: ignore the quiet NaN
  }
  return c <= 0 ? a : b;
}

}  // namespace rcs::fparith
