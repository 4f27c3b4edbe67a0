// Tests for the tiling pass: per-dimension cache blocking lowered as
// BlockLoop IET nodes, tiled-vs-untiled bitwise equivalence across MPI
// patterns x backends (the tiled schedule must be a pure traversal-order
// change *within* each loop nest, so owned values come out
// bit-identical), and the JITFD_TILE default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/env.h"
#include "core/operator.h"
#include "grid/function.h"
#include "ir/lower.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

bool have_cc() {
  static const bool ok = std::system("cc --version > /dev/null 2>&1") == 0;
  return ok;
}

ir::Eq diffusion_eq(const TimeFunction& u) {
  return ir::Eq(u.forward(),
                sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()));
}

int count_type(const ir::NodePtr& root, ir::NodeType type) {
  int n = 0;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& node) {
        n += node->type == type ? 1 : 0;
        for (const ir::NodePtr& c : node->body) {
          visit(c);
        }
      };
  visit(root);
  return n;
}

// --- Distributed equivalence matrix ----------------------------------------

/// One distributed diffusion run; returns rank 0's gathered final buffer.
/// 21x21 over 4 ranks: odd extents, and tile 5 divides neither the 11-
/// nor the 10-point local blocks.
std::vector<float> run_distributed(ir::MpiMode mode, core::Backend backend,
                                   const std::vector<std::int64_t>& tile) {
  const std::int64_t n = 21;
  const int steps = 5;
  std::vector<float> out;
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 5},
                      std::vector<std::int64_t>{15, 17}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    opts.tile = tile;
    Operator op({diffusion_eq(u)}, opts);
    if (!tile.empty()) {
      ASSERT_TRUE(op.info().tile_clamp_reason.empty())
          << op.info().tile_clamp_reason;
    }
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", 1e-3}}});
    const auto got = u.gather(steps % u.time_buffers());
    if (comm.rank() == 0) {
      out = got;
    }
  });
  return out;
}

void check_tiled_equivalence(ir::MpiMode mode) {
  for (const core::Backend backend :
       {core::Backend::Interpret, core::Backend::Jit}) {
    if (backend == core::Backend::Jit && !have_cc()) {
      continue;
    }
    const auto plain = run_distributed(mode, backend, {});
    const auto tiled = run_distributed(mode, backend, {5, 0});
    ASSERT_EQ(plain.size(), tiled.size());
    ASSERT_FALSE(plain.empty());
    double mass = 0.0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      // Bitwise: tiling reorders whole-row traversal, not arithmetic.
      ASSERT_EQ(plain[i], tiled[i])
          << "mode " << ir::to_string(mode) << " backend "
          << jitfd::core::to_string(backend) << " at " << i;
      mass += std::abs(static_cast<double>(plain[i]));
    }
    EXPECT_GT(mass, 0.0) << "reference field is empty";
  }
}

TEST(Tiling, TiledMatchesUntiledBasicBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Basic);
}

TEST(Tiling, TiledMatchesUntiledDiagonalBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Diagonal);
}

TEST(Tiling, TiledMatchesUntiledFullBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Full);
}

// --- Serial 3-D, mid-dimension tiles ---------------------------------------

TEST(Tiling, SerialThreeDimNonDividingTilesMatchUntiled) {
  // Odd extents, neither tile divides its extent, and the middle
  // dimension is tiled too (the innermost never is).
  const std::int64_t steps = 3;
  auto run = [&](core::Backend backend,
                 const std::vector<std::int64_t>& tile) {
    const Grid g({13, 11, 9}, {1.0, 1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 2, 2},
                      std::vector<std::int64_t>{9, 8, 7}, 1.0F);
    ir::CompileOptions opts;
    opts.tile = tile;
    Operator op({diffusion_eq(u)}, opts);
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", 1e-4}}});
    return u.gather(static_cast<int>(steps % 2));
  };
  for (const core::Backend backend :
       {core::Backend::Interpret, core::Backend::Jit}) {
    if (backend == core::Backend::Jit && !have_cc()) {
      continue;
    }
    const auto plain = run(backend, {});
    for (const std::vector<std::int64_t>& tile :
         {std::vector<std::int64_t>{5, 0, 0},
          std::vector<std::int64_t>{5, 3, 0},
          std::vector<std::int64_t>{7, 3, 0}}) {
      const auto tiled = run(backend, tile);
      ASSERT_EQ(plain.size(), tiled.size());
      for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(plain[i], tiled[i])
            << "backend " << jitfd::core::to_string(backend) << " at " << i;
      }
    }
  }
}

TEST(Tiling, TileLargerThanExtentClampsWithReasonAndStillRuns) {
  const Grid g({13, 11}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {15, 0};  // 15 >= the 13-point extent.
  Operator op({diffusion_eq(u)}, opts);
  EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
  EXPECT_FALSE(op.info().tile_clamp_reason.empty());
  op.apply({.time_m = 0, .time_M = 1, .scalars = {{"dt", 1e-4}}});
  EXPECT_NE(op.describe().find("clamped"), std::string::npos);
}

// --- JITFD_TILE ------------------------------------------------------------

// setenv/unsetenv wrapper that restores on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Tiling, ParseTileIsStrict) {
  const auto parse = [](const std::string& text) {
    return jitfd::env::parse_int_list("JITFD_TILE", text);
  };
  EXPECT_TRUE(parse("").empty());
  EXPECT_EQ(parse("16"), (std::vector<std::int64_t>{16}));
  EXPECT_EQ(parse("16,8,0"), (std::vector<std::int64_t>{16, 8, 0}));
  // Empty tokens mean "untiled in this dimension"; anything non-numeric
  // is a hard configuration error rather than a silent 0.
  EXPECT_EQ(parse("8,,2"), (std::vector<std::int64_t>{8, 0, 2}));
  EXPECT_THROW(parse("x,4"), std::invalid_argument);
  EXPECT_THROW(parse("16,8cols"), std::invalid_argument);
}

TEST(Tiling, DefaultTileAppliesWhenOptionsLeaveTileEmpty) {
  {
    const ScopedEnv tile("JITFD_TILE", "4,0");
    const Grid g({32, 32}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    Operator op({diffusion_eq(u)});
    EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{4, 0}));
    EXPECT_TRUE(op.info().tile_clamp_reason.empty());
  }
  // Clamp-and-record: an infeasible default is not an error.
  {
    const ScopedEnv tile("JITFD_TILE", "4,0");
    const Grid g({32, 32}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.tile = {0, 0};  // Explicit (non-empty) options win over defaults.
    Operator op({diffusion_eq(u)}, opts);
    EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
  }
  {
    const ScopedEnv tile("JITFD_TILE", "64,4");
    const Grid g({32, 32}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    Operator op({diffusion_eq(u)});
    EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
    EXPECT_FALSE(op.info().tile_clamp_reason.empty());
  }
}

// --- Emitted SIMD annotations ----------------------------------------------

TEST(Tiling, EmitterAnnotatesInnermostLoopWithAlignedSimd) {
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {8, 0};
  Operator op({diffusion_eq(u)}, opts);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("simd"), std::string::npos) << code;
  EXPECT_NE(code.find("aligned(u:64)"), std::string::npos) << code;
  EXPECT_EQ(count_type(op.iet(), ir::NodeType::BlockLoop), 1);
}

}  // namespace
