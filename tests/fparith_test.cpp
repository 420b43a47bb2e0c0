// Tests for the bit-accurate software IEEE-754 binary64 cores: the soft
// operations must produce exactly the host FPU's bits (round-to-nearest-even)
// on every operand class, since the paper's FPGA cores are IEEE-754
// compliant [8].

#include "fparith/ieee754.hpp"

#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fparith/backend.hpp"

namespace fp = rcs::fparith;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kQNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMin = std::numeric_limits<double>::min();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kEps = std::numeric_limits<double>::epsilon();

void expect_bits_equal(double expected, double actual, double a, double b,
                       const char* op) {
  EXPECT_EQ(fp::to_bits(expected), fp::to_bits(actual))
      << op << "(" << a << ", " << b << "): expected bits 0x" << std::hex
      << fp::to_bits(expected) << " got 0x" << fp::to_bits(actual);
}

void check_add(double a, double b) {
  expect_bits_equal(a + b, fp::add(a, b), a, b, "add");
}
void check_mul(double a, double b) {
  expect_bits_equal(a * b, fp::mul(a, b), a, b, "mul");
}

}  // namespace

TEST(Ieee754Bits, RoundTrip) {
  for (double v : {0.0, -0.0, 1.0, -1.5, kInf, -kInf, kMax, kMin, kDenormMin}) {
    EXPECT_EQ(fp::to_bits(fp::from_bits(fp::to_bits(v))), fp::to_bits(v));
  }
}

TEST(Ieee754Add, SimpleValues) {
  check_add(1.0, 2.0);
  check_add(0.1, 0.2);
  check_add(1.0, -1.0);
  check_add(1e300, 1e300);
  check_add(1e-300, 1e-300);
  check_add(3.141592653589793, 2.718281828459045);
}

TEST(Ieee754Add, SignedZeros) {
  EXPECT_EQ(fp::to_bits(fp::add(0.0, 0.0)), fp::to_bits(0.0));
  EXPECT_EQ(fp::to_bits(fp::add(-0.0, -0.0)), fp::to_bits(-0.0));
  EXPECT_EQ(fp::to_bits(fp::add(0.0, -0.0)), fp::to_bits(0.0));
  EXPECT_EQ(fp::to_bits(fp::add(-0.0, 0.0)), fp::to_bits(0.0));
}

TEST(Ieee754Add, ExactCancellationIsPositiveZero) {
  EXPECT_EQ(fp::to_bits(fp::add(1.5, -1.5)), fp::to_bits(0.0));
  EXPECT_EQ(fp::to_bits(fp::add(-2.25, 2.25)), fp::to_bits(0.0));
}

TEST(Ieee754Add, Infinities) {
  EXPECT_EQ(fp::add(kInf, 1.0), kInf);
  EXPECT_EQ(fp::add(-kInf, 1e308), -kInf);
  EXPECT_EQ(fp::add(kInf, kInf), kInf);
  EXPECT_TRUE(std::isnan(fp::add(kInf, -kInf)));
}

TEST(Ieee754Add, NaNPropagates) {
  EXPECT_TRUE(std::isnan(fp::add(kQNaN, 1.0)));
  EXPECT_TRUE(std::isnan(fp::add(1.0, kQNaN)));
  EXPECT_TRUE(std::isnan(fp::add(kQNaN, kQNaN)));
}

TEST(Ieee754Add, OverflowToInfinity) {
  check_add(kMax, kMax);
  check_add(kMax, kMax * (kEps / 4));  // stays finite
  EXPECT_EQ(fp::add(kMax, kMax), kInf);
}

TEST(Ieee754Add, Subnormals) {
  check_add(kDenormMin, kDenormMin);
  check_add(kDenormMin, -kDenormMin);
  check_add(kMin, -kDenormMin);  // normal - subnormal -> subnormal
  check_add(kMin, kDenormMin);
  check_add(4 * kDenormMin, 3 * kDenormMin);
}

TEST(Ieee754Add, RoundToNearestEvenTies) {
  // 1 + 2^-53 is an exact tie: must round to even (stay 1.0).
  check_add(1.0, kEps / 2);
  // (1 + eps) + eps/2 ties up to the even neighbour 1 + 2eps.
  check_add(1.0 + kEps, kEps / 2);
  // Just above / below the tie.
  check_add(1.0, kEps / 2 + kEps / 1024);
  check_add(1.0, kEps / 2 - kEps / 1024);
}

TEST(Ieee754Add, HugeExponentGap) {
  // The smaller operand only contributes sticky information.
  check_add(1e308, 1e-308);
  check_add(1e308, -1e-308);
  check_add(1.0, kDenormMin);
  check_add(-1.0, kDenormMin);
  // Power-of-two boundary: 1.0 - tiny must round back to 1.0.
  check_add(1.0, -kDenormMin);
  check_add(2.0, -kDenormMin);
}

TEST(Ieee754Add, CancellationToSubnormal) {
  const double a = kMin * 1.5;
  const double b = -kMin;
  check_add(a, b);  // result is subnormal
}

TEST(Ieee754Sub, MatchesHost) {
  for (auto [a, b] : {std::pair{3.5, 1.25}, std::pair{1e-10, 1e10},
                      std::pair{-7.25, -7.25}, std::pair{0.1, 0.3}}) {
    expect_bits_equal(a - b, fp::sub(a, b), a, b, "sub");
  }
}

TEST(Ieee754Mul, SimpleValues) {
  check_mul(2.0, 3.0);
  check_mul(0.1, 0.2);
  check_mul(-1.5, 1.5);
  check_mul(3.141592653589793, 2.718281828459045);
  check_mul(1e-200, 1e-200);  // underflow to subnormal/zero region
  check_mul(1e200, 1e200);    // overflow
}

TEST(Ieee754Mul, ZerosAndSigns) {
  EXPECT_EQ(fp::to_bits(fp::mul(0.0, 5.0)), fp::to_bits(0.0));
  EXPECT_EQ(fp::to_bits(fp::mul(-0.0, 5.0)), fp::to_bits(-0.0));
  EXPECT_EQ(fp::to_bits(fp::mul(-0.0, -5.0)), fp::to_bits(0.0));
  EXPECT_EQ(fp::to_bits(fp::mul(0.0, -0.0)), fp::to_bits(-0.0));
}

TEST(Ieee754Mul, SpecialCases) {
  EXPECT_EQ(fp::mul(kInf, 2.0), kInf);
  EXPECT_EQ(fp::mul(-kInf, 2.0), -kInf);
  EXPECT_EQ(fp::mul(kInf, -kInf), -kInf);
  EXPECT_TRUE(std::isnan(fp::mul(kInf, 0.0)));
  EXPECT_TRUE(std::isnan(fp::mul(0.0, -kInf)));
  EXPECT_TRUE(std::isnan(fp::mul(kQNaN, 1.0)));
}

TEST(Ieee754Mul, SubnormalOperands) {
  check_mul(kDenormMin, 1.0);
  check_mul(kDenormMin, 2.0);
  check_mul(kDenormMin, 0.5);  // rounds to zero (ties-to-even)
  check_mul(kDenormMin, 1.5);
  check_mul(kMin, kEps);       // product is subnormal
  check_mul(kMin, 0.9999999);
}

TEST(Ieee754Mul, OverflowBoundary) {
  check_mul(kMax, 1.0000000000000002);
  check_mul(kMax, 2.0);
  check_mul(std::sqrt(kMax), std::sqrt(kMax));
}

TEST(Ieee754Compare, Ordering) {
  EXPECT_EQ(fp::compare(1.0, 2.0), -1);
  EXPECT_EQ(fp::compare(2.0, 1.0), 1);
  EXPECT_EQ(fp::compare(2.0, 2.0), 0);
  EXPECT_EQ(fp::compare(-1.0, 1.0), -1);
  EXPECT_EQ(fp::compare(-2.0, -1.0), -1);
  EXPECT_EQ(fp::compare(0.0, -0.0), 0);
  EXPECT_EQ(fp::compare(-kInf, kInf), -1);
  EXPECT_EQ(fp::compare(kInf, kMax), 1);
  EXPECT_EQ(fp::compare(kQNaN, 1.0), 2);
  EXPECT_EQ(fp::compare(1.0, kQNaN), 2);
}

TEST(Ieee754Min, Basic) {
  EXPECT_EQ(fp::min(1.0, 2.0), 1.0);
  EXPECT_EQ(fp::min(-kInf, 5.0), -kInf);
  EXPECT_EQ(fp::min(5.0, kQNaN), 5.0);   // minNum semantics
  EXPECT_TRUE(std::isnan(fp::min(kQNaN, kQNaN)));
}

TEST(Ieee754Relax, MatchesNativeRelax) {
  const double acc = 7.5, a = 3.25, b = 4.75;
  EXPECT_EQ(fp::relax(acc, a, b), std::min(acc, a + b));
  EXPECT_EQ(fp::relax(7.0, 3.25, 4.75), 7.0);
  EXPECT_EQ(fp::relax(kInf, kInf, 1.0), kInf);  // unreachable stays inf
}

TEST(CorePipeline, CycleFormula) {
  fp::CorePipeline pipe{14, 1};
  EXPECT_EQ(pipe.cycles_for(0), 0);
  EXPECT_EQ(pipe.cycles_for(1), 14);
  EXPECT_EQ(pipe.cycles_for(100), 14 + 99);
  fp::CorePipeline half{10, 2};
  EXPECT_EQ(half.cycles_for(5), 10 + 4 * 2);
}

TEST(Backends, NativeAndSoftAgreeOnMac) {
  rcs::Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const double acc = rng.uniform(-100.0, 100.0);
    const double a = rng.uniform(-10.0, 10.0);
    const double b = rng.uniform(-10.0, 10.0);
    EXPECT_EQ(fp::to_bits(fp::NativeFp::mac(acc, a, b)),
              fp::to_bits(fp::SoftFp::mac(acc, a, b)));
    EXPECT_EQ(fp::to_bits(fp::NativeFp::relax(acc, a, b)),
              fp::to_bits(fp::SoftFp::relax(acc, a, b)));
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweeps: random operands from several regimes must
// match the host FPU bit-for-bit on add/sub/mul.

struct Regime {
  const char* name;
  double lo, hi;       // magnitude range (log-uniform)
  bool allow_negative;
};

class FparithSweep : public ::testing::TestWithParam<std::tuple<Regime, int>> {
 protected:
  double draw(rcs::Rng& rng) const {
    const Regime& r = std::get<0>(GetParam());
    const double e = rng.uniform(std::log(r.lo), std::log(r.hi));
    double v = std::exp(e);
    if (r.allow_negative && rng.bernoulli(0.5)) v = -v;
    return v;
  }
};

TEST_P(FparithSweep, AddMatchesHost) {
  rcs::Rng rng(1000 + std::get<1>(GetParam()));
  for (int i = 0; i < 5000; ++i) {
    const double a = draw(rng), b = draw(rng);
    check_add(a, b);
  }
}

TEST_P(FparithSweep, MulMatchesHost) {
  rcs::Rng rng(2000 + std::get<1>(GetParam()));
  for (int i = 0; i < 5000; ++i) {
    const double a = draw(rng), b = draw(rng);
    check_mul(a, b);
  }
}

TEST_P(FparithSweep, AddIsCommutative) {
  rcs::Rng rng(3000 + std::get<1>(GetParam()));
  for (int i = 0; i < 2000; ++i) {
    const double a = draw(rng), b = draw(rng);
    EXPECT_EQ(fp::to_bits(fp::add(a, b)), fp::to_bits(fp::add(b, a)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, FparithSweep,
    ::testing::Combine(
        ::testing::Values(
            Regime{"unit", 0.5, 2.0, true},
            Regime{"wide", 1e-30, 1e30, true},
            Regime{"huge", 1e250, 1.7e308, true},
            Regime{"tiny", 5e-324, 1e-300, true},
            Regime{"mixed", 1e-10, 1e10, true}),
        ::testing::Values(0, 1)),
    [](const auto& pinfo) {
      return std::string(std::get<0>(pinfo.param).name) + "_" +
             std::to_string(std::get<1>(pinfo.param));
    });

// Pure random bit patterns (hits NaN/Inf/subnormal encodings uniformly).
TEST(FparithRandomBits, AddMulMatchHostOnArbitraryPatterns) {
  rcs::Rng rng(777);
  int checked = 0;
  for (int i = 0; i < 20000; ++i) {
    const double a = fp::from_bits(rng.bits());
    const double b = fp::from_bits(rng.bits());
    const double hadd = a + b;
    const double hmul = a * b;
    // NaN payloads are implementation-defined; compare NaN-ness only.
    const double sadd = fp::add(a, b);
    const double smul = fp::mul(a, b);
    if (std::isnan(hadd)) {
      EXPECT_TRUE(std::isnan(sadd));
    } else {
      EXPECT_EQ(fp::to_bits(hadd), fp::to_bits(sadd)) << a << " + " << b;
      ++checked;
    }
    if (std::isnan(hmul)) {
      EXPECT_TRUE(std::isnan(smul));
    } else {
      EXPECT_EQ(fp::to_bits(hmul), fp::to_bits(smul)) << a << " * " << b;
    }
  }
  EXPECT_GT(checked, 10000);  // the sweep must exercise plenty of finite cases
}
