// Tests for the four wave-propagator models: construction, working-set
// field counts (paper Section IV-B), kernel-intensity ordering, physical
// sanity (causality, boundedness), and serial-vs-distributed equivalence
// of full source-driven simulations for each model.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <regex>
#include <set>
#include <string>

#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::models::AcousticModel;
using jitfd::models::ElasticModel;
using jitfd::models::TtiModel;
using jitfd::models::ViscoelasticModel;
using jitfd::sparse::Injection;
using jitfd::sparse::SparseFunction;
namespace ir = jitfd::ir;

TEST(Models, WorkingSetFieldCountsMatchPaper) {
  // Paper Section IV-B: acoustic 5, elastic 22, viscoelastic 36 fields in
  // 3D. TTI: the paper counts 12 with theta/phi; we store four
  // precomputed direction cosines instead of the two angles and add the
  // two CIRE scratch fields -> 16 (see DESIGN.md).
  const Grid g3({8, 8, 8}, {1.0, 1.0, 1.0});
  ElasticModel elastic(g3, 4);
  EXPECT_EQ(elastic.field_count(), 22);
  ViscoelasticModel visco(g3, 4);
  EXPECT_EQ(visco.field_count(), 36);
  TtiModel tti(g3, 4);
  EXPECT_EQ(tti.field_count(), 16);
}

TEST(Models, KernelIntensityOrderingMatchesFigure7) {
  // TTI is by far the most flop-intensive per point; acoustic the least
  // per field. Compile each 3D kernel at SDO 8 and compare AST-derived
  // flop counts (the paper's compile-time OI methodology).
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  AcousticModel ac(g, 8);
  TtiModel tti(g, 8);
  auto op_ac = ac.make_operator({});
  auto op_tti = tti.make_operator({});
  const auto facts_ac = jitfd::models::analyze(*op_ac, "acoustic", 8, 5);
  const auto facts_tti = jitfd::models::analyze(*op_tti, "tti", 8, 14);
  EXPECT_GT(facts_ac.flops_per_point, 10);
  EXPECT_GT(facts_tti.flops_per_point, 5 * facts_ac.flops_per_point);
  EXPECT_GT(facts_tti.reads_per_point, facts_ac.reads_per_point);
}

// One `rN*(taps)` term of the acoustic SO-8 update: the weight temp, the
// radius of its taps and the axes they lie on.
struct WeightGroup {
  std::string weight;
  int radius = 0;
  std::set<int> axes;
  int taps = 0;
};

// The acoustic SO-8 update's right-hand side, checked to end in the zero
// pin and to read u[t] and u[t-1] once each, times their collected
// coefficient (jc and jm).
std::string acoustic_update(const std::string& code) {
  std::smatch update;
  EXPECT_TRUE(std::regex_search(
      code, update,
      std::regex(R"(u\[\w+\]\[x \+ 8\]\[y \+ 8\]\[z \+ 8\] = (.*) \+ 0\.0F;)")))
      << code;
  const std::string rhs = update[1];
  const std::regex centre(R"(u\[(\w+)\]\[x \+ 8\]\[y \+ 8\]\[z \+ 8\])");
  std::set<std::string> buffers;
  for (auto it = std::sregex_iterator(rhs.begin(), rhs.end(), centre);
       it != std::sregex_iterator(); ++it) {
    EXPECT_TRUE(buffers.insert((*it)[1]).second) << (*it)[1];
    const auto at = static_cast<std::size_t>(it->position());
    EXPECT_EQ(rhs.substr(at + it->length(), 2), "*(") << it->str();
    EXPECT_EQ(rhs.substr(at < 2 ? 0 : at - 2, 2), "+ ") << it->str();
  }
  EXPECT_EQ(buffers.size(), 2U);
  return rhs;
}

// Every `rN*(u[..] + ... + u[..])` term of `rhs`. Each tap must lie on one
// axis through the centre (offset 8), all taps of a term at one radius,
// and both mirrored taps of every axis it covers must be present.
std::vector<WeightGroup> weight_groups(const std::string& rhs) {
  const std::string tap = R"(u\[\w+\]\[x \+ \d+\]\[y \+ \d+\]\[z \+ \d+\])";
  const std::regex group(R"((?:\(|\+ )(r\d+)\*\(()" + tap + R"((?: \+ )" +
                         tap + R"()*)\))");
  const std::regex coords(R"(\[x \+ (\d+)\]\[y \+ (\d+)\]\[z \+ (\d+)\])");
  std::vector<WeightGroup> out;
  for (auto it = std::sregex_iterator(rhs.begin(), rhs.end(), group);
       it != std::sregex_iterator(); ++it) {
    WeightGroup g;
    g.weight = (*it)[1];
    const std::string taps = (*it)[2];
    std::set<std::pair<int, int>> offsets;  // (axis, signed offset)
    for (auto t = std::sregex_iterator(taps.begin(), taps.end(), coords);
         t != std::sregex_iterator(); ++t, ++g.taps) {
      int axis = -1;
      int offset = 0;
      for (int d = 0; d < 3; ++d) {
        const int o = std::stoi((*t)[1 + d]) - 8;
        if (o != 0) {
          EXPECT_EQ(axis, -1) << t->str();
          axis = d;
          offset = o;
        }
      }
      EXPECT_GE(axis, 0) << t->str();
      EXPECT_TRUE(g.radius == 0 || g.radius == std::abs(offset)) << taps;
      g.radius = std::abs(offset);
      g.axes.insert(axis);
      offsets.emplace(axis, offset);
    }
    for (const int axis : g.axes) {
      EXPECT_EQ(offsets.count({axis, g.radius}), 1U) << taps;
      EXPECT_EQ(offsets.count({axis, -g.radius}), 1U) << taps;
    }
    EXPECT_EQ(g.taps, 2 * static_cast<int>(g.axes.size())) << taps;
    out.push_back(std::move(g));
  }
  return out;
}

// The weight groups of the acoustic SO-8 update in `code`, by (radius,
// axes), after checking that each has its own weight temp.
std::multiset<std::pair<int, std::set<int>>> acoustic_groups(
    const std::string& code) {
  const std::vector<WeightGroup> groups = weight_groups(acoustic_update(code));
  std::set<std::string> weights;
  std::multiset<std::pair<int, std::set<int>>> out;
  for (const WeightGroup& g : groups) {
    EXPECT_TRUE(weights.insert(g.weight).second) << g.weight;
    out.emplace(g.radius, g.axes);
  }
  return out;
}

TEST(Models, AcousticStencilPairsEveryMirroredTap) {
  // On the cube every axis shares h_x, so factorize() collects the update
  // by access, pulls the reciprocal r = 1/(m/dt^2 + damp/(2*dt)) out of
  // the whole sum, and sums the six taps at each radius under one weight:
  // r*(jc*u[t] + sum c_k*(the six taps at radius k) + jm*u[t-1]) + 0.
  // damp = max(damp_x[x], damp_y[y], damp_z[z]) counts 2 flops.
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  const std::map<int, int> flops{{4, 28}, {8, 42}, {12, 56}, {16, 70}};
  for (const auto& [so, want] : flops) {
    AcousticModel model(g, so);
    auto op = model.make_operator({});
    EXPECT_EQ(jitfd::models::analyze(*op, "acoustic", so, 5).flops_per_point,
              want)
        << "SDO " << so;
  }
  AcousticModel ac(g, 8);
  auto op = ac.make_operator({});
  const std::string& code = op->ccode();
  const auto groups = acoustic_groups(code);
  EXPECT_EQ(groups.size(), 4U);
  for (int k = 1; k <= 4; ++k) {
    EXPECT_EQ(groups.count({k, {0, 1, 2}}), 1U) << "radius " << k;
  }
  EXPECT_EQ(code.find("h_y"), std::string::npos);
  EXPECT_EQ(code.find("h_z"), std::string::npos);
}

TEST(Models, AcousticMergesOnlyBitEqualSpacings) {
  // Spacings 1, 1 and 2 merge x and y only: each radius has one group of
  // four taps and one of two. Spacings 1, 2 and 3 merge nothing: each
  // radius keeps one pair group per axis, as before spacings were merged.
  const struct {
    std::vector<double> extent;
    int flops;
    std::vector<std::set<int>> axes;  ///< The groups at each radius.
    bool reads_h_y;
  } cases[] = {{{24.0, 19.0, 34.0}, 46, {{0, 1}, {2}}, false},
               {{24.0, 38.0, 51.0}, 50, {{0}, {1}, {2}}, true}};
  for (const auto& c : cases) {
    const Grid g({25, 20, 18}, c.extent);
    AcousticModel model(g, 8);
    auto op = model.make_operator({});
    EXPECT_EQ(jitfd::models::analyze(*op, "acoustic", 8, 5).flops_per_point,
              c.flops);
    const std::string& code = op->ccode();
    const auto groups = acoustic_groups(code);
    EXPECT_EQ(groups.size(), 4 * c.axes.size());
    for (int k = 1; k <= 4; ++k) {
      for (const std::set<int>& axes : c.axes) {
        EXPECT_EQ(groups.count({k, axes}), 1U) << "radius " << k;
      }
    }
    EXPECT_EQ(code.find("h_y") != std::string::npos, c.reads_h_y);
    EXPECT_NE(code.find("h_z"), std::string::npos);
  }
}

TEST(Models, AcousticWaveIsCausalAndDamped) {
  const std::int64_t n = 33;
  const Grid g({n, n}, {1.0, 1.0});
  AcousticModel model(g, 4, /*velocity=*/1.0, /*nbl=*/4);
  const SparseFunction src("src", g, {{0.5, 0.5}});
  const double dt = model.critical_dt();
  Injection inj(
      model.wavefield(), src,
      [&](std::int64_t t) {
        return jitfd::sparse::ricker(t * dt, 8.0, 0.15);
      },
      nullptr, 1);
  auto op = model.make_operator({}, {&inj});
  const int steps = 10;
  op->apply({.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});

  // Causality: after `steps` steps the wave travelled at most
  // c * steps * dt (+ stencil radius widening); the far corner is silent.
  const std::vector<std::int64_t> corner{1, 1};
  EXPECT_EQ(model.wavefield().get_global_or((steps + 1) % 3, corner, 0.0F),
            0.0F);
  // But energy was injected.
  EXPECT_GT(model.field_energy(steps), 0.0);

  // Longer run with absorbing boundaries remains bounded.
  op->apply({.time_m = steps + 1, .time_M = 120, .scalars = model.scalars(dt)});
  const double e = model.field_energy(120);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_LT(e, 1e6);
}

TEST(Models, AcousticStandingModeFrequencyIsCorrect) {
  // Seed u with one interior bump and check the discrete solution decays
  // and oscillates without blowup for several periods at the CFL dt
  // (a cheap stability/consistency check of the 2nd-order-in-time update).
  const std::int64_t n = 17;
  const Grid g({n, n}, {1.0, 1.0});
  AcousticModel model(g, 4, 1.0);
  const double dt = model.critical_dt();
  // Smooth initial condition in both t0-equivalent buffers.
  for (const int buf : {0, 1}) {
    model.wavefield().init([&](std::span<const std::int64_t> gi) {
      const double x = static_cast<double>(gi[0]) / (n - 1);
      const double y = static_cast<double>(gi[1]) / (n - 1);
      return static_cast<float>(std::sin(M_PI * x) * std::sin(M_PI * y));
    });
    (void)buf;
  }
  auto op = model.make_operator({});
  op->apply({.time_m = 1, .time_M = 200, .scalars = model.scalars(dt)});
  EXPECT_TRUE(std::isfinite(model.field_energy(200)));
  EXPECT_LT(model.field_energy(200), 1e4);
}

template <typename Model>
void run_mode_equivalence(int so, std::int64_t n, int steps,
                          double tolerance) {
  // Serial reference with a point source.
  std::vector<float> expected;
  double ref_energy = 0.0;
  auto drive = [&](Model& model, const Grid& g) {
    const SparseFunction src(
        "src", g, {{g.extent()[0] / 2 + 0.013, g.extent()[1] / 2 - 0.027}});
    const double dt = model.critical_dt();
    Injection inj(
        model.wavefield(), src,
        [dt](std::int64_t t) {
          return jitfd::sparse::ricker(t * dt, 6.0, 0.3);
        },
        nullptr, 1);
    ir::CompileOptions opts;
    auto op = model.make_operator(opts, {&inj});
    op->apply({.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});
    const int nb = model.wavefield().time_buffers();
    return model.wavefield().gather((steps + 1) % nb);
  };
  {
    const Grid g({n, n}, {1.0, 1.0});
    Model model(g, so);
    expected = drive(model, g);
    ref_energy = model.field_energy(steps);
    EXPECT_GT(ref_energy, 0.0) << "wave did not start";
  }

  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({n, n}, {1.0, 1.0}, comm);
      Model model(g, so);
      const SparseFunction src(
          "src", g, {{g.extent()[0] / 2 + 0.013, g.extent()[1] / 2 - 0.027}});
      const double dt = model.critical_dt();
      Injection inj(
          model.wavefield(), src,
          [dt](std::int64_t t) {
            return jitfd::sparse::ricker(t * dt, 6.0, 0.3);
          },
          nullptr, 1);
      ir::CompileOptions opts;
      opts.mode = mode;
      auto op = model.make_operator(opts, {&inj});
      op->apply({.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});
      const int nb = model.wavefield().time_buffers();
      const auto got = model.wavefield().gather((steps + 1) % nb);
      if (comm.rank() == 0) {
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i], expected[i], tolerance)
              << "mode " << ir::to_string(mode) << " at " << i;
        }
      }
    });
  }
}

TEST(Models, AcousticModesMatchSerial) {
  run_mode_equivalence<AcousticModel>(4, 20, 12, 1e-6);
}

TEST(Models, TtiModesMatchSerial) {
  run_mode_equivalence<TtiModel>(4, 20, 8, 1e-6);
}

TEST(Models, ElasticModesMatchSerial) {
  run_mode_equivalence<ElasticModel>(4, 20, 10, 1e-6);
}

TEST(Models, ViscoelasticModesMatchSerial) {
  run_mode_equivalence<ViscoelasticModel>(4, 20, 10, 1e-6);
}

TEST(Models, Acoustic3DDistributedSmoke) {
  // Small 3D run across 8 ranks (2x2x2) in diagonal mode: exercises the
  // 26-neighbour exchange including corners.
  const std::int64_t n = 12;
  const int steps = 4;
  std::vector<float> expected;
  {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0});
    AcousticModel model(g, 4);
    model.wavefield().fill_global_box(
        0, std::vector<std::int64_t>{5, 5, 5},
        std::vector<std::int64_t>{7, 7, 7}, 1.0F);
    model.wavefield().fill_global_box(
        1, std::vector<std::int64_t>{5, 5, 5},
        std::vector<std::int64_t>{7, 7, 7}, 1.0F);
    auto op = model.make_operator({});
    op->apply({.time_m = 1, .time_M = steps,
               .scalars = model.scalars(model.critical_dt())});
    expected = model.wavefield().gather((steps + 1) % 3);
  }
  smpi::launch({.nranks = 8}, [&](smpi::Communicator& comm) {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0}, comm);
    AcousticModel model(g, 4);
    model.wavefield().fill_global_box(
        0, std::vector<std::int64_t>{5, 5, 5},
        std::vector<std::int64_t>{7, 7, 7}, 1.0F);
    model.wavefield().fill_global_box(
        1, std::vector<std::int64_t>{5, 5, 5},
        std::vector<std::int64_t>{7, 7, 7}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Diagonal;
    auto op = model.make_operator(opts);
    op->apply({.time_m = 1, .time_M = steps,
               .scalars = model.scalars(model.critical_dt())});
    const auto got = model.wavefield().gather((steps + 1) % 3);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

TEST(Models, TtiExchangesCireTemporariesEveryStep) {
  // The CIRE formulation materializes the inner rotated derivative into
  // scratch fields (zdp/zdq) that are recomputed each step and read at
  // offsets by the outer application: the compiler must give them a
  // per-step (never hoisted) halo exchange, after the p/q exchange of
  // the first cluster. The direction-cosine fields are only read at the
  // iteration point and need no exchange at all.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({12, 12}, {1.0, 1.0}, comm);
    TtiModel model(g, 4);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    auto op = model.make_operator(opts);
    const auto& spots = op->info().spots;
    ASSERT_EQ(spots.size(), 2U);
    EXPECT_FALSE(spots[0].hoisted);
    EXPECT_FALSE(spots[1].hoisted);
    // Spot 0: the wavefields p@t, q@t; spot 1: the scratch fields.
    EXPECT_EQ(spots[0].needs.size(), 2U);
    EXPECT_EQ(spots[1].needs.size(), 2U);
    for (const auto& need : spots[1].needs) {
      EXPECT_EQ(need.time_offset, 0);
    }
  });
}

template <typename Model>
void run_3d_equivalence(ir::MpiMode mode, int so, std::int64_t n, int steps) {
  // Regression for the CSE-temporary halo-detection bug: in 3D the CSE
  // pass factors many single-access reads of v@t+1 into temporaries, and
  // halo analysis must still see them. Fill every first-buffer field of
  // the model through its wavefield proxy and compare distributed vs
  // serial.
  std::vector<float> expected;
  {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0});
    Model model(g, so);
    model.wavefield().fill_global_box(
        0, std::vector<std::int64_t>{n / 2 - 1, n / 2 - 1, n / 2 - 1},
        std::vector<std::int64_t>{n / 2 + 1, n / 2 + 1, n / 2 + 1}, 1.0F);
    auto op = model.make_operator({});
    op->apply({.time_m = 0, .time_M = steps - 1,
               .scalars = model.scalars(model.critical_dt())});
    const int nb = model.wavefield().time_buffers();
    expected = model.wavefield().gather(steps % nb);
  }
  smpi::launch({.nranks = 8}, [&](smpi::Communicator& comm) {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0}, comm);
    Model model(g, so);
    model.wavefield().fill_global_box(
        0, std::vector<std::int64_t>{n / 2 - 1, n / 2 - 1, n / 2 - 1},
        std::vector<std::int64_t>{n / 2 + 1, n / 2 + 1, n / 2 + 1}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    auto op = model.make_operator(opts);
    op->apply({.time_m = 0, .time_M = steps - 1,
               .scalars = model.scalars(model.critical_dt())});
    const int nb = model.wavefield().time_buffers();
    const auto got = model.wavefield().gather(steps % nb);
    if (comm.rank() == 0) {
      double ref_mass = 0.0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6)
            << "mode " << ir::to_string(mode) << " at " << i;
        ref_mass += std::abs(expected[i]);
      }
      EXPECT_GT(ref_mass, 0.0) << "reference field is empty";
    }
  });
}

TEST(Models, Elastic3DDistributedMatchesSerial) {
  run_3d_equivalence<ElasticModel>(ir::MpiMode::Basic, 4, 12, 4);
  run_3d_equivalence<ElasticModel>(ir::MpiMode::Full, 4, 12, 4);
}

TEST(Models, Viscoelastic3DDistributedMatchesSerial) {
  run_3d_equivalence<ViscoelasticModel>(ir::MpiMode::Diagonal, 4, 12, 4);
}

TEST(Models, Tti3DDistributedMatchesSerial) {
  run_3d_equivalence<TtiModel>(ir::MpiMode::Basic, 4, 12, 3);
}

TEST(Models, ViscoelasticEnergyDecaysOverTime) {
  // Viscous attenuation: after the source stops, energy must decrease.
  const Grid g({25, 25}, {1.0, 1.0});
  ViscoelasticModel model(g, 4);
  model.wavefield().fill_global_box(0, std::vector<std::int64_t>{11, 11},
                                    std::vector<std::int64_t>{14, 14}, 1.0F);
  const double dt = model.critical_dt();
  auto op = model.make_operator({});
  // Start at time 0 so the first step's now() reads buffer 0 (the fill).
  op->apply({.time_m = 0, .time_M = 29, .scalars = model.scalars(dt)});
  const double e30 = model.field_energy(29);
  EXPECT_GT(e30, 0.0);
  op->apply({.time_m = 30, .time_M = 119, .scalars = model.scalars(dt)});
  const double e120 = model.field_energy(119);
  EXPECT_TRUE(std::isfinite(e120));
  EXPECT_LT(e120, e30);
}

}  // namespace
