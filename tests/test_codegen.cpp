// Code-generation tests: structure of the emitted C (the paper's
// Listing 11 analogue), OpenACC variant, and JIT-vs-interpreter
// functional equivalence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <regex>
#include <sstream>
#include <string>

#include "codegen/jit.h"
#include "core/operator.h"
#include "grid/function.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

bool have_cc() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

Operator diffusion_operator(const Grid& /*grid*/, TimeFunction& u,
                            ir::CompileOptions opts = {}) {
  return Operator({ir::Eq(
      u.forward(), sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()))},
                  opts);
}

TEST(Codegen, DiffusionKernelStructureMatchesListing11) {
  // The paper's Listing 11: hoisted reciprocal temps, a modulo-indexed
  // time loop, aligned accesses u[t][x + halo][y + halo], and the stencil
  // assignment built from r-temps.
  const Grid g({4, 4}, {2.0, 2.0});
  TimeFunction u("u", g, 2, 1);
  Operator op = diffusion_operator(g, u);
  const std::string& code = op.ccode();

  // Hoisted invariants (r0 = 1/dt-like and the 1/h^2 factors).
  EXPECT_NE(code.find("const float r0"), std::string::npos) << code;
  // Time loop and modulo buffer indices for a 2-buffer field.
  EXPECT_NE(code.find("for (long time = time_m; time <= time_M; time += 1)"),
            std::string::npos);
  EXPECT_NE(code.find("(time + 2) % 2"), std::string::npos);
  EXPECT_NE(code.find("(time + 3) % 2"), std::string::npos);
  // Access alignment: SDO 2 => halo 2, so the write is u[...][x + 2][y + 2].
  EXPECT_NE(code.find("[x + 2][y + 2] ="), std::string::npos) << code;
  // OpenMP annotations on the loop nest.
  EXPECT_NE(code.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(code.find("#pragma omp simd"), std::string::npos);
  // No communication calls on a serial grid.
  EXPECT_EQ(code.find("ops->update"), std::string::npos);
}

TEST(Codegen, BasicModeEmitsHaloUpdateInsideTimeLoop) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    Operator op = diffusion_operator(g, u, opts);
    const std::string& code = op.ccode();
    const auto loop_pos =
        code.find("for (long time = time_m; time <= time_M; time += 1)");
    const auto update_pos = code.find("ops->update(hctx, 0, time);");
    ASSERT_NE(loop_pos, std::string::npos);
    ASSERT_NE(update_pos, std::string::npos);
    EXPECT_LT(loop_pos, update_pos);
  });
}

TEST(Codegen, FullModeEmitsStartCoreWaitRemainderAndProgress) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({32, 32}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Full;
    opts.tile = {8, 0};
    Operator op = diffusion_operator(g, u, opts);
    const std::string& code = op.ccode();
    const auto start = code.find("ops->start(hctx, 0, time);");
    const auto core = code.find("/* section: core */");
    const auto progress = code.find("ops->progress(hctx);");
    const auto wait = code.find("ops->wait(hctx, 0);");
    const auto remainder = code.find("/* section: remainder */");
    ASSERT_NE(start, std::string::npos) << code;
    ASSERT_NE(progress, std::string::npos);
    EXPECT_LT(start, core);
    EXPECT_LT(core, progress);
    EXPECT_LT(progress, wait);
    EXPECT_LT(wait, remainder);
    // The split rebuilds its nests from the scheduled one and keeps the
    // update's zero pin: the core and every remainder slab store `+ 0.0F`.
    const std::regex store(R"(u\[\w+\]\[x \+ \d+\]\[y \+ \d+\] = ([^;]*);)");
    int stores = 0;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), store);
         it != std::sregex_iterator(); ++it, ++stores) {
      EXPECT_TRUE(it->str(1).ends_with(" + 0.0F")) << it->str();
    }
    EXPECT_EQ(stores, 5);  // The core and two slabs per decomposed axis.
  });
}

TEST(Codegen, OpenAccVariantUsesAccPragmas) {
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.lang = ir::Lang::OpenAcc;
  Operator op = diffusion_operator(g, u, opts);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("#pragma acc parallel loop collapse(3)"),
            std::string::npos)
      << code;
  EXPECT_EQ(code.find("#pragma omp"), std::string::npos);
}

TEST(Codegen, TiledLoopsEmitBlockLoopAndWindowIntersection) {
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {8, 0};
  Operator op = diffusion_operator(g, u, opts);
  const std::string& code = op.ccode();
  // A serial grid steps the active box: the tiles walk the compute box
  // (itself clipped to the nest bounds [0, 32)).
  ASSERT_TRUE(op.info().activity) << op.info().activity_reason;
  EXPECT_NE(code.find("const long jitfd_xhi = jitfd_cb[1] < 32 ? jitfd_cb[1] "
                      ": 32;"),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("for (long xb = jitfd_xlo; xb < jitfd_xhi; xb += 8)"),
            std::string::npos)
      << code;
  // The enclosed x loop runs the intersection with the active window.
  EXPECT_NE(code.find("xb + 8 < jitfd_xhi ? xb + 8 : jitfd_xhi"),
            std::string::npos)
      << code;
}

TEST(CodegenJit, JitMatchesInterpreterOnDiffusion) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 12;
  const double dt = 1e-3;
  auto run = [&](core::Backend backend) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 4, 1);
    const std::vector<std::int64_t> lo{2, 3};
    const std::vector<std::int64_t> hi{7, 9};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.set_default_backend(backend);
    const auto run = op.apply(
        {.time_m = 0, .time_M = 4, .scalars = {{"dt", dt}}});
    EXPECT_EQ(run.backend, backend);
    if (backend == core::Backend::Jit) {
      // Either a fresh external-compiler build took measurable time, or
      // the identical source was already in the compile cache.
      EXPECT_TRUE(run.jit_cache_hit || run.jit_compile_seconds > 0.0);
    }
    return u.gather(5 % 2);
  };
  const auto interp = run(core::Backend::Interpret);
  const auto jit = run(core::Backend::Jit);
  ASSERT_EQ(interp.size(), jit.size());
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ASSERT_NEAR(interp[i], jit[i], 1e-6) << "at " << i;
  }
}

TEST(CodegenJit, JitRunsDistributedBasicMode) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 12;
  const double dt = 1e-3;
  // Serial interpreter reference.
  std::vector<float> expected;
  {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{1, 1};
    const std::vector<std::int64_t> hi{n - 1, n - 1};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    expected = u.gather(0);
  }
  smpi::launch({.nranks = 2}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{1, 1};
    const std::vector<std::int64_t> hi{n - 1, n - 1};
    u.fill_global_box(0, lo, hi, 1.0F);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    Operator op = diffusion_operator(g, u, opts);
    op.set_default_backend(core::Backend::Jit);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    const auto got = u.gather(0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

TEST(Codegen, ThreeDimensionalEmissionIndexesAllDims) {
  const Grid g({6, 7, 8}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  Operator op = diffusion_operator(g, u);
  const std::string& code = op.ccode();
  // The stencil nest sweeps each row's span of z inside the active box,
  // clamped to the 8-point extent (the health sweep, absent under
  // JITFD_OBS=OFF, is not what this checks).
  EXPECT_NE(code.find("const long jitfd_zhi = jitfd_cb[5] < 8 ? "
                      "jitfd_cb[5] : 8;"),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("jitfd_row_span(jitfd_rr, jitfd_zlo, jitfd_zhi, "
                      "&jitfd_rlo, &jitfd_rhi);"),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("for (long z = jitfd_rlo; z < jitfd_rhi; z += 1)"),
            std::string::npos)
      << code;
  EXPECT_NE(code.find("[x + 2][y + 2][z + 2] ="), std::string::npos);
  // VLA-pointer cast bakes the padded extents of the two inner dims.
  EXPECT_NE(code.find("[11][12]"), std::string::npos) << code;
}

TEST(Codegen, EnvVarSelectsPattern) {
  // Set around the launch, not inside it: the ranks are threads, and one
  // rank's unsetenv must not race another rank's operator construction.
  ::setenv("JITFD_MPI", "diag", 1);
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    Operator op = diffusion_operator(g, u);  // Mode None requested.
    EXPECT_EQ(op.options().mode, ir::MpiMode::Diagonal);
  });
  ::unsetenv("JITFD_MPI");
  EXPECT_EQ(ir::mode_from_string("full"), ir::MpiMode::Full);
  EXPECT_EQ(ir::mode_from_string("1"), ir::MpiMode::Basic);
  EXPECT_THROW(ir::mode_from_string("bogus"), std::invalid_argument);
}

// Every pattern on every wave model compiles to one schedule: a time
// loop that advances one step per iteration and exchanges each of its
// halo spots exactly once per step (a blocking update, or a start/wait
// pair under the full pattern), while hoisted parameter exchanges run
// once, before the loop.
enum class Wave { Acoustic, Elastic, Tti, Viscoelastic };

std::unique_ptr<jitfd::models::WaveModel> make_wave(Wave kind,
                                                    const Grid& g) {
  switch (kind) {
    case Wave::Acoustic:
      return std::make_unique<jitfd::models::AcousticModel>(g, 4);
    case Wave::Elastic:
      return std::make_unique<jitfd::models::ElasticModel>(g, 4);
    case Wave::Tti:
      return std::make_unique<jitfd::models::TtiModel>(g, 4);
    case Wave::Viscoelastic:
      return std::make_unique<jitfd::models::ViscoelasticModel>(g, 4);
  }
  return nullptr;
}

std::string wave_name(Wave kind) {
  switch (kind) {
    case Wave::Acoustic:
      return "acoustic";
    case Wave::Elastic:
      return "elastic";
    case Wave::Tti:
      return "tti";
    case Wave::Viscoelastic:
      return "viscoelastic";
  }
  return "";
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

class EmittedSchedule
    : public ::testing::TestWithParam<std::tuple<Wave, ir::MpiMode>> {};

TEST_P(EmittedSchedule, ExchangesEverySpotOncePerStep) {
  const auto [kind, mode] = GetParam();
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    const auto model = make_wave(kind, g);
    ir::CompileOptions opts;
    opts.mode = mode;
    const auto op = model->make_operator(opts);
    const std::string& code = op->ccode();
    ASSERT_EQ(occurrences(code, "for (long time"), 1U) << code;
    const auto loop =
        code.find("for (long time = time_m; time <= time_M; time += 1)");
    ASSERT_NE(loop, std::string::npos) << code;

    std::size_t starts = 0;
    std::size_t in_loop = 0;
    for (const ir::SpotInfo& spot : op->info().spots) {
      const std::string id = std::to_string(spot.id);
      if (spot.hoisted) {
        const std::string call = "ops->update(hctx, " + id + ", 0);";
        EXPECT_EQ(occurrences(code, call), 1U) << "spot " << id;
        EXPECT_LT(code.find(call), loop) << "spot " << id;
        continue;
      }
      ++in_loop;
      const std::string update = "ops->update(hctx, " + id + ", time);";
      const std::string start = "ops->start(hctx, " + id + ", time);";
      const std::string wait = "ops->wait(hctx, " + id + ");";
      const std::size_t n_update = occurrences(code, update);
      const std::size_t n_start = occurrences(code, start);
      EXPECT_EQ(n_update + n_start, 1U) << "spot " << id << "\n" << code;
      EXPECT_EQ(occurrences(code, wait), n_start) << "spot " << id;
      const auto call = code.find(n_start == 1 ? start : update);
      EXPECT_GT(call, loop) << "spot " << id;
      if (n_start == 1) {
        EXPECT_GT(code.find(wait), call) << "spot " << id;
      }
      starts += n_start;
    }
    EXPECT_GT(in_loop, 0U);
    // Only the full pattern overlaps an exchange with compute.
    if (mode == ir::MpiMode::Full) {
      EXPECT_GT(starts, 0U) << code;
    } else {
      EXPECT_EQ(starts, 0U) << code;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndPatterns, EmittedSchedule,
    ::testing::Combine(::testing::Values(Wave::Acoustic, Wave::Elastic,
                                         Wave::Tti, Wave::Viscoelastic),
                       ::testing::Values(ir::MpiMode::Basic,
                                         ir::MpiMode::Diagonal,
                                         ir::MpiMode::Full)),
    [](const auto& info) {
      return wave_name(std::get<0>(info.param)) + "_" +
             ir::to_string(std::get<1>(info.param));
    });

TEST(CodegenJit, TiledKernelMatchesUntiled) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 21;  // Not a multiple of the tile size.
  const double dt = 1e-3;
  auto run = [&](std::int64_t tile) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 5},
                      std::vector<std::int64_t>{15, 17}, 1.0F);
    ir::CompileOptions opts;
    if (tile > 0) {
      opts.tile = {tile, 0};
    }
    Operator op = diffusion_operator(g, u, opts);
    op.set_default_backend(core::Backend::Jit);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    return u.gather(4 % 2);
  };
  const auto plain = run(0);
  const auto tiled = run(8);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], tiled[i]) << "at " << i;
  }
}

TEST(CodegenJit, TtiKernelWithSqrtCompilesAndRuns) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // TTI's sqrt(1 + 2*delta) exercises Call emission (sqrtf).
  const Grid g({16, 16}, {1.0, 1.0});
  jitfd::models::TtiModel model(g, 4);
  model.wavefield().fill_global_box(0, std::vector<std::int64_t>{7, 7},
                                    std::vector<std::int64_t>{9, 9}, 1e-3F);
  auto op = model.make_operator({});
  EXPECT_NE(op->ccode().find("sqrtf("), std::string::npos);
  // Interpreter reference.
  op->apply({.time_m = 0, .time_M = 3,
             .scalars = model.scalars(model.critical_dt())});
  const auto expected = model.wavefield().gather(4 % 3);

  const Grid g2({16, 16}, {1.0, 1.0});
  jitfd::models::TtiModel model2(g2, 4);
  model2.wavefield().fill_global_box(0, std::vector<std::int64_t>{7, 7},
                                     std::vector<std::int64_t>{9, 9}, 1e-3F);
  auto op2 = model2.make_operator({});
  op2->set_default_backend(core::Backend::Jit);
  op2->apply({.time_m = 0, .time_M = 3,
              .scalars = model2.scalars(model2.critical_dt())});
  const auto got = model2.wavefield().gather(4 % 3);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-7) << "at " << i;
  }
}

TEST(Codegen, SpongeMaxIsATernaryOncePerPointAndRow) {
  // The sponge max(damp_x[x], damp_y[y], damp_z[z]) is jitfd_max (the
  // ternary GCC vectorizes to vmaxps), never fmaxf: the outer profiles'
  // max once per row before the simd loop, the whole max once per point
  // as the loop's first statement.
  const Grid g({12, 11, 10}, {1.0, 1.0, 1.0});
  const jitfd::models::AcousticModel model(g, 8, 1.5, /*nbl=*/3);
  const auto op = model.make_operator({});
  const std::string& code = op->ccode();
  EXPECT_EQ(code.find("fmaxf"), std::string::npos);
  EXPECT_NE(code.find("return a > b ? a : b;"), std::string::npos) << code;
  const std::string row =
      "const float jitfd_rmax0 = jitfd_max(damp_x[x + 8], damp_y[y + 8]);";
  const std::string point =
      "const float jitfd_pmax0 = jitfd_max(jitfd_rmax0, damp_z[z + 8]);";
  const auto row_at = code.find(row);
  const auto simd_at = code.find("#pragma omp simd", row_at);
  const auto loop_at = code.find("for (long z", simd_at);
  ASSERT_NE(row_at, std::string::npos) << code;
  ASSERT_NE(loop_at, std::string::npos) << code;
  const auto body_at = code.find('{', loop_at) + 1;
  ASSERT_NE(code.find(point), std::string::npos) << code;
  EXPECT_EQ(code.substr(body_at, code.find(point) - body_at)
                .find_first_not_of(" \n"),
            std::string::npos)
      << "the per-point max is not the loop's first statement";
  EXPECT_EQ(code.find("damp_z[", code.find(point) + point.size()),
            std::string::npos)
      << "the loop reads damp_z beyond its per-point max";
  // OpenACC nests collapse every loop: no row temp between them.
  ir::CompileOptions acc;
  acc.lang = ir::Lang::OpenAcc;
  const std::string acc_code = model.make_operator(acc)->ccode();
  EXPECT_EQ(acc_code.find("jitfd_rmax"), std::string::npos);
  EXPECT_NE(acc_code.find("jitfd_pmax0 = jitfd_max(jitfd_max(damp_x[x + 8], "
                          "damp_y[y + 8]), damp_z[z + 8]);"),
            std::string::npos)
      << acc_code;
  // A kernel without a max carries no helper.
  const jitfd::models::ViscoelasticModel visco(g, 4);
  EXPECT_EQ(visco.make_operator({})->ccode().find("jitfd_max"),
            std::string::npos);
}

TEST(Codegen, MaxFoldsNumbersIgnoresArgumentOrderAndCountsComparisons) {
  const sym::Ex a = sym::symbol("a");
  const sym::Ex b = sym::symbol("b");
  const sym::Ex c = sym::symbol("c");
  EXPECT_EQ(sym::max({a, b, c}), sym::max({c, a, b}));
  EXPECT_EQ(sym::max({a, sym::max({b, c})}), sym::max({a, b, c}));
  EXPECT_EQ(sym::max({a, a}), a);
  EXPECT_EQ(sym::max({sym::Ex(2), sym::Ex(3.5), sym::Ex(-1)}), sym::Ex(3.5));
  EXPECT_EQ(sym::max({a, sym::Ex(2), sym::Ex(5)}), sym::max({sym::Ex(5), a}));
  EXPECT_EQ(sym::max({a, b}).to_string(), "max(a, b)");
  EXPECT_EQ(sym::count_flops(sym::max({a, b})), 1);
  EXPECT_EQ(sym::count_flops(sym::max({a, b, c})), 2);
  EXPECT_EQ(sym::count_flops(sym::max({a + b, c})), 2);
  EXPECT_EQ(sym::substitute(sym::max({a, b}), b, sym::Ex(7)),
            sym::max({sym::Ex(7), a}));
  EXPECT_THROW(sym::max({}), std::invalid_argument);
}

TEST(CodegenJit, OneDimensionalKernelCompiles) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const Grid g({17}, {1.0});
  TimeFunction u("u", g, 2, 1);
  u.set_global(0, std::vector<std::int64_t>{8}, 1.0F);
  const sym::Ex pde = u.dt() - sym::diff(u.now(), 0, 2, 2);
  Operator op({ir::Eq(u.forward(), sym::solve(pde, sym::Ex(0), u.forward()))});
  op.set_default_backend(core::Backend::Jit);
  op.apply({.time_m = 0, .time_M = 9, .scalars = {{"dt", 1e-3}}});
  const auto data = u.gather(10 % 2);
  double mass = 0.0;
  for (const float v : data) {
    mass += v;
  }
  EXPECT_NEAR(mass, 1.0, 1e-3);  // Diffusion conserves interior mass.
}

TEST(CodegenJit, PaddedFieldsIndexThroughTheFullLeftOffset) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // padding > 0 shifts the data region by halo+padding; the generated
  // code must match the interpreter exactly.
  const std::int64_t n = 10;
  auto run = [&](core::Backend backend) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1, /*padding=*/3);
    u.fill_global_box(0, std::vector<std::int64_t>{2, 2},
                      std::vector<std::int64_t>{8, 8}, 1.0F);
    Operator op = diffusion_operator(g, u);
    EXPECT_NE(op.ccode().find("[x + 5][y + 5]"), std::string::npos)
        << op.ccode();  // lpad = halo(2) + padding(3).
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = 2, .scalars = {{"dt", 1e-3}}});
    return u.gather(3 % 2);
  };
  const auto interp = run(core::Backend::Interpret);
  const auto jit = run(core::Backend::Jit);
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ASSERT_NEAR(interp[i], jit[i], 1e-6) << "at " << i;
  }
}

TEST(Operator, RejectsMixedGridsAndDeadFields) {
  const Grid g1({8, 8}, {1.0, 1.0});
  const Grid g2({8, 8}, {1.0, 1.0});
  TimeFunction u("u", g1, 2, 1);
  TimeFunction v("v", g2, 2, 1);
  EXPECT_THROW(Operator({ir::Eq(u.forward(), v.now() + 1)}),
               std::invalid_argument);

  sym::Ex dangling;
  {
    TimeFunction w("w", g1, 2, 1);
    dangling = w.forward();
  }  // w destroyed: the registry entry is gone.
  EXPECT_THROW(Operator({ir::Eq(dangling, sym::Ex(1))}),
               std::invalid_argument);
}

TEST(CodegenJit, CompileFailureSurfacesDiagnostics) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  EXPECT_THROW(jitfd::codegen::JitKernel("this is not C;", false),
               std::runtime_error);
}

TEST(CodegenJit, CompileCacheServesRepeatBuilds) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // Salt the source so the first build is a guaranteed miss even against
  // a persistent $JITFD_CACHE_DIR left over from earlier runs.
  std::ostringstream src;
  src << "int kernel(float** f, const double* s, long m, long M, void* c,\n"
         "           const void* o) {\n"
         "  (void)f; (void)s; (void)m; (void)M; (void)c; (void)o;\n"
         "  return 7;\n"
         "}\n/* salt "
      << ::getpid() << '.'
      << std::chrono::system_clock::now().time_since_epoch().count()
      << " */\n";

  const std::uint64_t hits_before = jitfd::codegen::JitKernel::cache_hits();
  jitfd::codegen::JitKernel first(src.str(), false);
  EXPECT_FALSE(first.cache_hit());
  EXPECT_GT(first.compile_seconds(), 0.0);

  jitfd::codegen::JitKernel second(src.str(), false);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(second.compile_seconds(), 0.0);
  EXPECT_GE(jitfd::codegen::JitKernel::cache_hits(), hits_before + 1);

  // The cached object is the same loadable kernel.
  EXPECT_EQ(second.run(nullptr, nullptr, 0, 0, nullptr, nullptr), 7);
}

TEST(CodegenJit, IdenticalOperatorsShareOneCompile) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::uint64_t misses_before =
      jitfd::codegen::JitKernel::cache_misses();
  auto build_and_run = [] {
    const Grid g({10, 10}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{3, 3};
    const std::vector<std::int64_t> hi{7, 7};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.set_default_backend(core::Backend::Jit);
    const auto run = op.apply(
        {.time_m = 0, .time_M = 2, .scalars = {{"dt", 1e-3}}});
    return run.jit_cache_hit;
  };
  build_and_run();
  const bool second_hit = build_and_run();
  EXPECT_TRUE(second_hit);
  // At most one external-compiler invocation for the pair.
  EXPECT_LE(jitfd::codegen::JitKernel::cache_misses(), misses_before + 1);
}

}  // namespace
