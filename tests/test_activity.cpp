// Active-box stepping: on serial grids every generated sweep covers only
// where the wavefield can be nonzero and records the box of what it
// wrote. Every tracked run here is compared bit for bit (memcmp of every
// buffer of every field, ghosts included) with a full-box run of the same
// problem. The full-box run writes its zero start through init() and
// takes the non-const raw_storage() of every field before each step; by
// the raw-pointer rule both mark every box full, so each of its steps
// sweeps the whole grid without any knob. It also fills the owned points
// of every buffer a step writes with NaN first: a step that skipped any
// of them would leave a NaN the tracked run does not have.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <utility>

#include "codegen/jit.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

namespace {

namespace core = jitfd::core;
namespace grid = jitfd::grid;
namespace ir = jitfd::ir;
namespace models = jitfd::models;
namespace sparse = jitfd::sparse;

using grid::Function;
using grid::Grid;
using grid::TimeFunction;

constexpr std::int64_t kEdge = 20;
constexpr int kOrder = 4;
constexpr std::int64_t kSteps = 8;

enum class Model { Acoustic, Elastic, Tti, Viscoelastic };

std::unique_ptr<models::WaveModel> make_model(Model m, const Grid& g,
                                              int order) {
  switch (m) {
    case Model::Acoustic:
      return std::make_unique<models::AcousticModel>(g, order, 1.5, 4);
    case Model::Elastic:
      return std::make_unique<models::ElasticModel>(g, order, 2.0, 1.0, 1.0,
                                                    4);
    case Model::Tti:
      return std::make_unique<models::TtiModel>(g, order);
    case Model::Viscoelastic:
      return std::make_unique<models::ViscoelasticModel>(g, order);
  }
  return nullptr;
}

std::uint32_t bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The grid, space order and sources of a Shot: by default a kEdge^3
/// cube at kOrder whose step 1 reads a unit impulse at the centre, with
/// an injected Ricker wavelet (f0 0.2, delay 5) at `source` when asked
/// for.
struct ShotShape {
  std::vector<std::int64_t> extent = std::vector<std::int64_t>(3, kEdge);
  int order = kOrder;
  bool impulse = true;
  std::vector<double> source{9.5, 10.25, 9.0};
};

/// One problem: a serial 3-D grid, a model and its operator, started from
/// zero (see ShotShape for its sources).
struct Shot {
  Shot(Model m, std::vector<std::int64_t> tile, bool full_box,
       bool with_injection = false, const ShotShape& shape = {})
      : grid(shape.extent, spacing_one(shape.extent)),
        model(make_model(m, grid, shape.order)),
        full(full_box) {
    scalars = model->scalars(model->critical_dt());
    if (with_injection) {
      points = std::make_unique<sparse::SparseFunction>(
          "src", grid, std::vector<std::vector<double>>{shape.source});
      const double dt = model->critical_dt();
      injection = std::make_unique<sparse::Injection>(
          model->wavefield(), *points,
          [dt](std::int64_t t) {
            return sparse::ricker(static_cast<double>(t) * dt, 0.2, 5.0);
          },
          nullptr);
    }
    ir::CompileOptions opts;
    opts.tile = std::move(tile);
    std::vector<jitfd::runtime::SparseOp*> ops;
    if (injection != nullptr) {
      ops.push_back(injection.get());
    }
    op = model->make_operator(opts, ops);
    op->set_default_backend(core::Backend::Jit);
    for (const int id : op->info().field_order) {
      fields.push_back(grid::lookup_field(id));
    }
    for (Function* f : fields) {
      if (!f->field_id().time_varying) {
        continue;
      }
      if (full) {
        f->init([](std::span<const std::int64_t>) { return 0.0F; });
      } else {
        f->fill(0.0F);
      }
    }
    if (shape.impulse) {
      TimeFunction& w = model->wavefield();
      std::vector<std::int64_t> centre;
      for (const std::int64_t e : shape.extent) {
        centre.push_back(e / 2);
      }
      w.set_global(w.buffer_index(0, 1), centre, 1.0F);
    }
  }

  /// Unit spacing: the physical extent is one less than the points.
  static std::vector<double> spacing_one(
      const std::vector<std::int64_t>& extent) {
    std::vector<double> out;
    for (const std::int64_t e : extent) {
      out.push_back(static_cast<double>(e - 1));
    }
    return out;
  }

  /// Steps [first, last]: one apply for a tracked run; step by step for a
  /// full-box run, marking every field full before each step.
  void step(std::int64_t first, std::int64_t last,
            core::Backend backend = core::Backend::Jit) {
    if (!full) {
      op->apply({.time_m = first, .time_M = last, .scalars = scalars,
                 .backend = backend});
      return;
    }
    for (std::int64_t t = first; t <= last; ++t) {
      for (Function* f : fields) {
        (void)f->raw_storage();
        if (f->field_id().time_varying) {
          f->fill_global_box(f->buffer_index(1, t),
                             std::vector<std::int64_t>(
                                 static_cast<std::size_t>(grid.ndims()), 0),
                             grid.shape(),
                             std::numeric_limits<float>::quiet_NaN());
        }
      }
      op->apply({.time_m = t, .time_M = t, .scalars = scalars,
                 .backend = backend});
    }
  }

  /// Every buffer of every bound field, ghosts included.
  std::vector<std::vector<float>> snapshot() const {
    std::vector<std::vector<float>> out;
    for (const Function* f : fields) {
      const auto s = f->raw_storage();
      out.emplace_back(s.begin(), s.end());
    }
    return out;
  }

  Grid grid;
  std::unique_ptr<models::WaveModel> model;
  std::unique_ptr<sparse::SparseFunction> points;
  std::unique_ptr<sparse::Injection> injection;
  std::unique_ptr<core::Operator> op;
  std::map<std::string, double> scalars;
  std::vector<Function*> fields;
  bool full = false;
};

::testing::AssertionResult bitwise_equal(
    const std::vector<std::vector<float>>& a,
    const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "field counts differ";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      std::size_t at = 0;
      while (at < a[i].size() && bits(a[i][at]) == bits(b[i][at])) {
        ++at;
      }
      return ::testing::AssertionFailure()
             << "field #" << i << " differs first at raw index " << at;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every value with a nonzero bit pattern lies inside its buffer's box.
::testing::AssertionResult boxes_hold(const Function& f) {
  const auto& ps = f.padded_shape();
  const int nd = static_cast<int>(ps.size());
  const auto raw = f.raw_storage();
  for (int t = 0; t < f.time_buffers(); ++t) {
    const grid::ActivityBox box = f.activity(t);
    for (std::int64_t i = 0; i < f.buffer_points(); ++i) {
      if (bits(raw[static_cast<std::size_t>(t * f.buffer_points() + i)]) ==
          0) {
        continue;
      }
      std::int64_t rest = i;
      for (int d = nd - 1; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        const std::int64_t c = rest % ps[ud];
        rest /= ps[ud];
        if (c < box.lo[ud] || c >= box.hi[ud]) {
          return ::testing::AssertionFailure()
                 << f.name() << " buffer " << t << " holds a nonzero at "
                 << "raw index " << i << " outside its box along dim " << d;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every value with a nonzero bit pattern lies inside its row's entry
/// (with boxes_hold: inside the entry clipped to the box). Distributed
/// grids keep no rows.
::testing::AssertionResult rows_hold(const Function& f) {
  const std::int64_t row = f.padded_shape().back();
  const auto raw = f.raw_storage();
  for (int t = 0; t < f.time_buffers(); ++t) {
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(t, r);
      for (std::int64_t z = 0; z < row; ++z) {
        const std::int64_t i = (t * f.activity_rows() + r) * row + z;
        const std::int64_t at = z - f.lpad();
        if (bits(raw[static_cast<std::size_t>(i)]) != 0 &&
            (at < e.lo || at >= e.hi)) {
          return ::testing::AssertionFailure()
                 << f.name() << " buffer " << t << " row " << r
                 << " holds a nonzero at " << at << " outside its entry ["
                 << e.lo << ", " << e.hi << ")";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Share of the points of buffer `t`'s box (3-D) that its row entries,
/// clipped to the box, cover.
double row_coverage(const Function& f, int t) {
  const grid::ActivityBox box = f.activity(t);
  const std::int64_t ny = f.padded_shape()[1];
  std::int64_t covered = 0;
  for (std::int64_t x = box.lo[0]; x < box.hi[0]; ++x) {
    for (std::int64_t y = box.lo[1]; y < box.hi[1]; ++y) {
      const grid::ActivityRow e = f.activity_row(t, x * ny + y);
      const std::int64_t lo =
          std::max<std::int64_t>(std::int64_t{e.lo} + f.lpad(), box.lo[2]);
      const std::int64_t hi =
          std::min<std::int64_t>(std::int64_t{e.hi} + f.lpad(), box.hi[2]);
      covered += std::max<std::int64_t>(hi - lo, 0);
    }
  }
  const std::int64_t volume = (box.hi[0] - box.lo[0]) *
                              (box.hi[1] - box.lo[1]) *
                              (box.hi[2] - box.lo[2]);
  return static_cast<double>(covered) / static_cast<double>(volume);
}

/// Does buffer `t`'s box reach a face of the owned region?
bool touches_face(const Function& f, int t) {
  const grid::ActivityBox box = f.activity(t);
  for (std::size_t d = 0; d < f.padded_shape().size(); ++d) {
    if (box.lo[d] <= f.lpad() || box.hi[d] >= f.lpad() + kEdge) {
      return true;
    }
  }
  return false;
}

struct ModelCase {
  Model model;
  std::vector<std::int64_t> tile;
};

class ActivityModels : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ActivityModels, TrackedRunMatchesFullBoxRunBitForBit) {
  const ModelCase& mc = GetParam();
  Shot tracked(mc.model, mc.tile, /*full_box=*/false);
  Shot reference(mc.model, mc.tile, /*full_box=*/true);
  const ir::LoweringInfo& info = tracked.op->info();
  if (mc.model == Model::Tti) {
    // The rotated derivative sums three products of direction cosines
    // with +0 derivatives: with all three cosine products negative a full
    // sweep writes -0 from +0 inputs, so the proof must refuse.
    EXPECT_FALSE(info.activity);
    EXPECT_NE(info.activity_reason.find("'zdp'"), std::string::npos)
        << info.activity_reason;
    EXPECT_NE(info.activity_reason.find("-0"), std::string::npos)
        << info.activity_reason;
  } else {
    ASSERT_TRUE(info.activity) << info.activity_reason;
    EXPECT_NE(tracked.op->ccode().find("jitfd_box_store"), std::string::npos);
  }
  if (mc.model == Model::Acoustic) {
    // The proof holds over the paired taps k*(u[x-r] + u[x+r]).
    EXPECT_NE(tracked.op->ccode().find("*(u["), std::string::npos);
  }
  tracked.step(1, kSteps);
  reference.step(1, kSteps);
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  for (const Function* f : tracked.fields) {
    EXPECT_TRUE(boxes_hold(*f));
    EXPECT_TRUE(rows_hold(*f));
  }
  if (info.activity) {
    const TimeFunction& w = tracked.model->wavefield();
    EXPECT_TRUE(touches_face(w, w.buffer_index(1, kSteps)))
        << "the front never reached a face in " << kSteps << " steps";
  }
}

std::string case_name(const ::testing::TestParamInfo<ModelCase>& p) {
  static const char* const kNames[] = {"Acoustic", "Elastic", "Tti",
                                       "Viscoelastic"};
  return std::string(kNames[static_cast<int>(p.param.model)]) +
         (p.param.tile.empty() ? "Untiled" : "Tiled");
}

INSTANTIATE_TEST_SUITE_P(
    SerialGrids, ActivityModels,
    ::testing::Values(ModelCase{Model::Acoustic, {}},
                      ModelCase{Model::Acoustic, {8, 4}},
                      ModelCase{Model::Elastic, {}},
                      ModelCase{Model::Elastic, {8, 4}},
                      ModelCase{Model::Tti, {}},
                      ModelCase{Model::Tti, {8, 4}},
                      ModelCase{Model::Viscoelastic, {}},
                      ModelCase{Model::Viscoelastic, {8, 4}}),
    case_name);

/// Rows long enough to matter: 96 points along z (six 16-float vectors),
/// SO 8, and an off-centre Ricker source as the only source. On the 20^3
/// grids above every row's span rounds out to the whole box. The front's
/// nonzero bits run about 4 points a step ahead until they underflow, so
/// the box fills x and y within 20 steps; the grid is as wide as it is
/// long so that the rows still cover about half of the box at the end.
const ShotShape kLongRows{.extent = {96, 96, 96},
                          .order = 8,
                          .impulse = false,
                          .source = {44.5, 51.25, 40.0}};
constexpr std::int64_t kLongSteps = 40;

class ActivityLongRows
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(ActivityLongRows, TrackedRunMatchesFullBoxRunAndRowsStayNarrow) {
  Shot tracked(Model::Acoustic, GetParam(), /*full_box=*/false,
               /*with_injection=*/true, kLongRows);
  Shot reference(Model::Acoustic, GetParam(), /*full_box=*/true,
                 /*with_injection=*/true, kLongRows);
  ASSERT_TRUE(tracked.op->info().activity);
  tracked.step(1, kLongSteps);
  reference.step(1, kLongSteps);
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  for (const Function* f : tracked.fields) {
    EXPECT_TRUE(boxes_hold(*f));
    EXPECT_TRUE(rows_hold(*f));
  }
  // The rows must stay narrower than the box, or this case tests nothing
  // the box does not.
  const TimeFunction& w = tracked.model->wavefield();
  const double share = row_coverage(w, w.buffer_index(1, kLongSteps));
  EXPECT_GT(share, 0.0);
  EXPECT_LT(share, 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    SerialGrids, ActivityLongRows,
    ::testing::Values(std::vector<std::int64_t>{},
                      std::vector<std::int64_t>{16, 8}),
    [](const auto& p) {
      return std::string(p.param.empty() ? "Untiled" : "Tiled");
    });

TEST(Activity, TtiWithNegativeDirectionCosinesWritesMinusZero) {
  // Why the TTI proof refuses: with every product of direction cosines
  // negative, a full sweep from an all-+0 wavefield writes -0 into the
  // rotated-derivative scratch field. A tracked sweep would leave +0.
  const Grid g(std::vector<std::int64_t>(3, 12),
               std::vector<double>(3, 11.0));
  models::TtiModel tti(g, kOrder, 1.5, 0.2, 0.1, std::numbers::pi - 0.35,
                       std::numbers::pi + 0.6);
  auto op = tti.make_operator({});
  ASSERT_FALSE(op->info().activity);
  tti.wavefield().fill(0.0F);
  tti.q().fill(0.0F);
  op->apply({.time_m = 1, .time_M = 1,
             .scalars = tti.scalars(tti.critical_dt()),
             .backend = core::Backend::Jit});
  std::int64_t minus_zero = 0;
  for (const int id : op->info().field_order) {
    const Function& f = *grid::lookup_field(id);
    if (f.name() != "zdp") {
      continue;
    }
    for (const float v : f.raw_storage()) {
      minus_zero += bits(v) == 0x80000000U ? 1 : 0;
    }
  }
  EXPECT_GT(minus_zero, 0);
}

TEST(Activity, ZeroPinWritesPlusZeroUnderANegativeReciprocal) {
  // The acoustic update is r*(...) + 0 with r = 1/(m/dt^2 + damp/(2*dt))
  // factored out of the whole sum. With m < 0, r < 0 and r*(+0) is -0:
  // only the zero pin turns it into +0, which the proof relies on.
  const auto negative_m = [](Shot& s) {
    auto& model = dynamic_cast<models::AcousticModel&>(*s.model);
    model.m().fill(-0.45F);
  };
  Shot quiet(Model::Acoustic, {}, /*full_box=*/true);
  ASSERT_TRUE(quiet.op->info().activity) << quiet.op->info().activity_reason;
  negative_m(quiet);
  TimeFunction& w = quiet.model->wavefield();
  w.fill(0.0F);
  quiet.step(1, 1);
  std::int64_t nonzero_bits = 0;
  for (const float v : std::as_const(w).raw_storage()) {
    nonzero_bits += bits(v) != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero_bits, 0) << "a full-box step from +0 wrote -0";

  // Compared after one step too: once the front fills the grid every box
  // is full.
  Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true);
  for (const auto& [first, last] :
       {std::pair<std::int64_t, std::int64_t>{1, 1}, {2, kSteps}}) {
    for (Shot* s : {&tracked, &reference}) {
      if (first == 1) {
        negative_m(*s);
      }
      s->step(first, last);
    }
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "after step " << last;
    EXPECT_TRUE(boxes_hold(tracked.model->wavefield()));
    EXPECT_TRUE(rows_hold(tracked.model->wavefield()));
  }
}

using Mutator = std::function<void(Shot&, int buffer)>;

class ActivityMutators
    : public ::testing::TestWithParam<std::pair<const char*, Mutator>> {};

TEST_P(ActivityMutators, MutationBetweenStepsMatchesFullBoxRun) {
  const Mutator& mutate = GetParam().second;
  // Mutate the buffer step 4 reads, then the one it overwrites.
  for (const int offset : {0, 1}) {
    Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
    Shot reference(Model::Acoustic, {}, /*full_box=*/true);
    ASSERT_TRUE(tracked.op->info().activity);
    for (Shot* s : {&tracked, &reference}) {
      s->step(1, 3);
      mutate(*s, s->model->wavefield().buffer_index(offset, 4));
      for (const Function* f : s->fields) {
        EXPECT_TRUE(boxes_hold(*f)) << "right after the mutation";
        EXPECT_TRUE(rows_hold(*f)) << "right after the mutation";
      }
      s->step(4, 4);
    }
    // Once the front fills the grid every box is full, so compare before.
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "time offset " << offset << ", one step after the mutation";
    for (Shot* s : {&tracked, &reference}) {
      s->step(5, kSteps);
    }
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "time offset " << offset;
    for (const Function* f : tracked.fields) {
      EXPECT_TRUE(boxes_hold(*f));
      EXPECT_TRUE(rows_hold(*f));
    }
  }
}

/// Raw storage index of data-region point `idx` of buffer `t`.
std::size_t raw_index(const Function& f, int t,
                      const std::vector<std::int64_t>& idx) {
  std::int64_t linear = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    linear = linear * f.padded_shape()[d] + idx[d] + f.lpad();
  }
  return static_cast<std::size_t>(t * f.buffer_points() + linear);
}

INSTANTIATE_TEST_SUITE_P(
    Mutators, ActivityMutators,
    ::testing::Values(
        std::pair<const char*, Mutator>{
            "FillPlusZero",
            [](Shot& s, int) { s.model->wavefield().fill(0.0F); }},
        std::pair<const char*, Mutator>{
            "FillMinusZero",
            [](Shot& s, int) { s.model->wavefield().fill(-0.0F); }},
        std::pair<const char*, Mutator>{
            "FillValue",
            [](Shot& s, int) { s.model->wavefield().fill(1e-3F); }},
        std::pair<const char*, Mutator>{
            "FillGlobalBox",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> lo{1, 2, 15};
              const std::vector<std::int64_t> hi{4, 6, 19};
              s.model->wavefield().fill_global_box(t, lo, hi, 0.25F);
            }},
        std::pair<const char*, Mutator>{
            "SetGlobal",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> g{17, 2, 16};
              s.model->wavefield().set_global(t, g, 0.5F);
            }},
        std::pair<const char*, Mutator>{
            "AtLocalGhost",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> idx{-1, 5, 14};
              s.model->wavefield().at_local(t, idx) = 0.75F;
            }},
        std::pair<const char*, Mutator>{
            "AtLocalRowGhost",
            [](Shot& s, int t) {
              // A ghost of an owned row: its entry reaches below the
              // row's first owned point.
              const std::vector<std::int64_t> idx{9, 11, -2};
              s.model->wavefield().at_local(t, idx) = 0.75F;
            }},
        std::pair<const char*, Mutator>{
            "Init",
            [](Shot& s, int) {
              s.model->wavefield().init(
                  [](std::span<const std::int64_t> g) {
                    return g[0] == 3 && g[1] == 4 ? 0.125F : 0.0F;
                  });
            }},
        std::pair<const char*, Mutator>{
            "InitRows",
            [](Shot& s, int) {
              s.model->wavefield().init_rows(
                  [](std::span<const std::int64_t> outer,
                     std::span<const std::int64_t> inner,
                     std::span<float> row) {
                    for (std::size_t i = 0; i < row.size(); ++i) {
                      row[i] = outer[0] == 16 && outer[1] == 3 && inner[i] == 2
                                   ? -0.5F
                                   : 0.0F;
                    }
                  });
            }},
        std::pair<const char*, Mutator>{
            "BufferPointer",
            [](Shot& s, int t) {
              TimeFunction& w = s.model->wavefield();
              w.buffer(0)[raw_index(w, t, {2, 17, 3})] = 0.3F;
            }},
        std::pair<const char*, Mutator>{
            "RawStorageGhost",
            [](Shot& s, int t) {
              TimeFunction& w = s.model->wavefield();
              w.raw_storage()[raw_index(w, t, {kEdge, 9, 9})] = 0.2F;
            }}),
    [](const auto& p) { return std::string(p.param.first); });

/// Every row entry of every buffer, as (lo, hi) pairs.
std::vector<std::pair<std::int32_t, std::int32_t>> row_entries(
    const Function& f) {
  std::vector<std::pair<std::int32_t, std::int32_t>> out;
  for (int t = 0; t < f.time_buffers(); ++t) {
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(t, r);
      out.emplace_back(e.lo, e.hi);
    }
  }
  return out;
}

/// How many row entries differ between two row_entries snapshots.
std::int64_t rows_changed(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& a,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& b) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    n += a[i] != b[i] ? 1 : 0;
  }
  return n;
}

/// Do the rows of buffer `t` (every buffer when `t` < 0) all count as
/// whole: the padded row, ghosts included, in loop coordinates?
bool rows_full(const Function& f, int t = -1) {
  const auto lo = static_cast<std::int32_t>(-f.lpad());
  const auto hi =
      static_cast<std::int32_t>(f.padded_shape().back() - f.lpad());
  for (int b = 0; b < f.time_buffers(); ++b) {
    if (t >= 0 && b != t) {
      continue;
    }
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(b, r);
      if (e.lo != lo || e.hi != hi) {
        return false;
      }
    }
  }
  return true;
}

TEST(Activity, MutatorsKeepBoxesTrue) {
  const Grid g({6, 5}, {5.0, 4.0});
  TimeFunction u("u", g, 2, /*time_order=*/2);
  const int nd = 2;
  ASSERT_EQ(u.activity_rows(), u.padded_shape()[0]);
  for (int t = 0; t < u.time_buffers(); ++t) {
    EXPECT_TRUE(u.activity(t).empty(nd)) << "fresh storage is +0";
  }
  auto rows = row_entries(u);
  const std::vector<std::int64_t> p{4, 1};
  u.set_global(1, p, 2.0F);
  grid::ActivityBox b = u.activity(1);
  EXPECT_EQ(b.lo[0], 4 + u.lpad());
  EXPECT_EQ(b.hi[0], 5 + u.lpad());
  EXPECT_EQ(b.lo[1], 1 + u.lpad());
  EXPECT_EQ(b.hi[1], 2 + u.lpad());
  EXPECT_TRUE(u.activity(0).empty(nd));
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 1) << "set_global";
  grid::ActivityRow e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 1);
  EXPECT_EQ(e.hi, 2);
  rows = row_entries(u);
  const std::vector<std::int64_t> q{-2, 3};
  u.at_local(1, q) = 1.0F;
  b = u.activity(1);
  EXPECT_EQ(b.lo[0], u.lpad() - 2);
  EXPECT_EQ(b.hi[0], 5 + u.lpad());
  EXPECT_EQ(b.hi[1], 4 + u.lpad());
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 1) << "at_local";
  e = u.activity_row(1, u.lpad() - 2);
  EXPECT_EQ(e.lo, 3);
  EXPECT_EQ(e.hi, 4);
  // A second point in a live row widens its entry.
  u.set_global(1, std::vector<std::int64_t>{4, 4}, 3.0F);
  e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 1);
  EXPECT_EQ(e.hi, 5);
  EXPECT_TRUE(rows_hold(u));
  // fill(+0) empties the boxes and leaves the rows stale: the next point,
  // far from the old one in a row whose stale entry misses it, restarts
  // its entry.
  rows = row_entries(u);
  u.fill(0.0F);
  EXPECT_TRUE(u.activity(1).empty(nd));
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 0) << "fill(+0) is O(1)";
  u.set_global(1, std::vector<std::int64_t>{4, 0}, 0.5F);
  e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 0);
  EXPECT_EQ(e.hi, 1);
  EXPECT_TRUE(boxes_hold(u));
  EXPECT_TRUE(rows_hold(u));
  // A row the box did not cover restarts too.
  u.set_global(1, std::vector<std::int64_t>{0, 4}, 0.25F);
  e = u.activity_row(1, u.lpad());
  EXPECT_EQ(e.lo, 4);
  EXPECT_EQ(e.hi, 5);
  EXPECT_TRUE(boxes_hold(u));
  EXPECT_TRUE(rows_hold(u));
  u.fill(-0.0F);
  for (int t = 0; t < u.time_buffers(); ++t) {
    b = u.activity(t);
    EXPECT_EQ(b.lo[0], 0);
    EXPECT_EQ(b.hi[0], u.padded_shape()[0]);
    EXPECT_EQ(b.hi[1], u.padded_shape()[1]);
  }
  EXPECT_TRUE(rows_full(u)) << "fill(-0)";
  u.fill(0.0F);
  u.fill_global_box(2, std::vector<std::int64_t>{1, 1},
                    std::vector<std::int64_t>{2, 2}, 1.0F);
  EXPECT_TRUE(rows_full(u, 2)) << "fill_global_box";
  u.fill(0.0F);
  u.init([](std::span<const std::int64_t>) { return 0.0F; });
  EXPECT_TRUE(rows_full(u)) << "init";
  u.fill(0.0F);
  (void)std::as_const(u).buffer(0);
  (void)std::as_const(u).raw_storage();
  EXPECT_TRUE(u.activity(0).empty(nd)) << "const views leave boxes alone";
  (void)u.kernel_buffer(0);
  EXPECT_TRUE(u.activity(0).empty(nd)) << "kernel binding leaves boxes alone";
  rows = row_entries(u);
  (void)u.buffer(2);
  EXPECT_FALSE(u.activity(0).empty(nd)) << "a raw pointer marks every buffer";
  EXPECT_TRUE(rows_full(u)) << "buffer()";
  u.fill(0.0F);
  u.set_global(2, std::vector<std::int64_t>{1, 3}, 1.0F);
  // The tables live in the 64-byte-aligned header below buffer(0): the
  // box table first, then the row table.
  const auto* table =
      reinterpret_cast<const std::int64_t*>(u.kernel_buffer(0)) -
      u.activity_table_offset();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table) %
                grid::AlignedAlloc::kAlignment,
            0U);
  EXPECT_EQ(table[(2 * nd + 1) * 2 + 1], 4 + u.lpad());
  const auto* row_table =
      reinterpret_cast<const std::int32_t*>(u.kernel_buffer(0)) -
      u.row_table_offset();
  EXPECT_EQ(reinterpret_cast<const char*>(row_table),
            reinterpret_cast<const char*>(table + 2 * nd * u.time_buffers()));
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2], 3);
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2 + 1], 4);
  (void)u.raw_storage();
  EXPECT_TRUE(rows_full(u)) << "raw_storage()";
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2 + 1], 4)
      << "marking full leaves the entries: the box makes them whole";
  // A box that reaches an innermost ghost counts every row whole, even
  // rows whose entry is stale.
  u.fill(0.0F);
  u.at_local(0, std::vector<std::int64_t>{2, -1}) = 1.0F;
  EXPECT_TRUE(rows_full(u, 0));
  EXPECT_TRUE(rows_hold(u));
}


// --- The ledger's path: JitKernel::run with its own callback table ------------

struct DirectCtx {
  std::vector<jitfd::runtime::SparseOp*>* sparse = nullptr;
};

void direct_sparse(void* c, int id, long time) {
  static_cast<DirectCtx*>(c)->sparse->at(static_cast<std::size_t>(id))
      ->apply(time);
}

TEST(Activity, DirectKernelRunsAlternatingWithApplyMatchOneApply) {
  Shot once(Model::Acoustic, {}, /*full_box=*/false, /*with_injection=*/true);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true,
                 /*with_injection=*/true);
  ASSERT_TRUE(once.op->info().activity);
  once.step(1, kSteps);
  reference.step(1, kSteps);

  // As the propagator benchmark's ledger does: bind buffer(0) once (which
  // marks every box full), restart from zero, then step chunk by chunk.
  Shot mixed(Model::Acoustic, {}, /*full_box=*/false, /*with_injection=*/true);
  const ir::LoweringInfo& info = mixed.op->info();
  std::vector<float*> ptrs;
  for (Function* f : mixed.fields) {
    ptrs.push_back(f->buffer(0));
  }
  TimeFunction& w = mixed.model->wavefield();
  w.fill(0.0F);
  w.set_global(w.buffer_index(0, 1), std::vector<std::int64_t>(3, kEdge / 2),
               1.0F);
  std::map<std::string, double> bound = mixed.scalars;
  for (int d = 0; d < 3; ++d) {
    bound.emplace("h_" + Grid::dim_name(d), mixed.grid.spacing(d));
  }
  bound[ir::kHealthIntervalScalar] = 0.0;
  std::vector<double> scalars;
  for (const std::string& name : info.scalar_order) {
    scalars.push_back(bound.at(name));
  }
  std::vector<jitfd::runtime::SparseOp*> sparse{mixed.injection.get()};
  DirectCtx ctx{&sparse};
  jitfd::codegen::JitHaloOps ops;
  ops.sparse = &direct_sparse;
  const jitfd::codegen::JitKernel kernel(mixed.op->ccode());
  for (std::int64_t t = 1; t <= kSteps; ++t) {
    if (t % 2 == 1) {
      ASSERT_EQ(kernel.run(ptrs.data(), scalars.data(), t, t, &ctx, &ops), 0);
    } else {
      mixed.step(t, t);
    }
  }
  EXPECT_TRUE(bitwise_equal(mixed.snapshot(), once.snapshot()));
  EXPECT_TRUE(bitwise_equal(once.snapshot(), reference.snapshot()));
  EXPECT_TRUE(boxes_hold(w));
  EXPECT_TRUE(rows_hold(w));
}

TEST(Activity, InterpreterThenJitStepsMatchFullBoxRun) {
  Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true);
  ASSERT_TRUE(tracked.op->info().activity);
  for (Shot* s : {&tracked, &reference}) {
    s->step(1, 2, core::Backend::Interpret);
  }
  // The interpreter marks what it writes full, once per apply.
  const TimeFunction& w = tracked.model->wavefield();
  for (int t = 0; t < w.time_buffers(); ++t) {
    EXPECT_EQ(w.activity(t).hi[0], w.padded_shape()[0]);
  }
  for (Shot* s : {&tracked, &reference}) {
    s->step(3, kSteps);
  }
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  EXPECT_TRUE(boxes_hold(w));
  EXPECT_TRUE(rows_hold(w));
}

TEST(Activity, OneAndTwoDimensionalGridsMatchFullBoxRun) {
  // A 1-D nest is one team-parallel simd loop (its row is the whole
  // line); a 2-D nest folds rows inside the parallel loop. A saved field
  // indexes its box table by absolute time.
  constexpr std::int64_t kDiffusionSteps = 12;
  const std::pair<std::vector<std::int64_t>, int> cases[] = {
      {{40}, 0}, {{24, 18}, 0}, {{24, 18}, kDiffusionSteps + 1}};
  for (const auto& [shape, save] : cases) {
    std::vector<std::vector<float>> runs[2];
    for (const bool full : {false, true}) {
      const Grid g(shape, std::vector<double>(shape.size(), 1.0));
      TimeFunction u("u", g, kOrder, /*time_order=*/1, /*padding=*/0, save);
      const jitfd::sym::Ex nu = jitfd::sym::symbol("nu");
      core::Operator op({ir::Eq(u.forward(), u.now() + nu * u.laplace())});
      op.set_default_backend(core::Backend::Jit);
      ASSERT_TRUE(op.info().activity) << op.info().activity_reason;
      if (full) {
        u.init([](std::span<const std::int64_t>) { return 0.0F; });
      } else {
        u.fill(0.0F);
      }
      u.set_global(0, std::vector<std::int64_t>(shape.size(), 7), 1.0F);
      for (std::int64_t t = 0; t < kDiffusionSteps; ++t) {
        if (full) {
          (void)u.raw_storage();
        }
        op.apply({.time_m = t, .time_M = t, .scalars = {{"nu", 0.1}}});
      }
      const auto raw = std::as_const(u).raw_storage();
      runs[full ? 1 : 0].emplace_back(raw.begin(), raw.end());
      if (!full) {
        EXPECT_TRUE(boxes_hold(u));
        EXPECT_TRUE(rows_hold(u));
      }
    }
    EXPECT_TRUE(bitwise_equal(runs[0], runs[1]))
        << shape.size() << "-D, save " << save;
  }
}

// --- What the proof refuses ---------------------------------------------------

TEST(Activity, EquationsThatAreNotZeroPreservingTurnTrackingOff) {
  const Grid g({12, 10}, {11.0, 9.0});
  TimeFunction u("u", g, 2, /*time_order=*/1);
  const auto lower = [&](const jitfd::sym::Ex& rhs) {
    return core::Operator({ir::Eq(u.forward(), rhs)}).info();
  };
  for (const jitfd::sym::Ex& rhs :
       {u.now() + 1, 1 / (u.now() + 2), jitfd::sym::Ex(1) / u.now()}) {
    const ir::LoweringInfo info = lower(rhs);
    EXPECT_FALSE(info.activity) << rhs.to_string();
    EXPECT_NE(info.activity_reason.find("not zero-preserving"),
              std::string::npos)
        << info.activity_reason;
  }
  // Folds to 0, but sqrt(-1) is NaN and 0 * NaN is NaN.
  const ir::LoweringInfo nan =
      lower(u.now() * jitfd::sym::call("sqrt", u.now() - 1));
  EXPECT_FALSE(nan.activity);
  EXPECT_NE(nan.activity_reason.find("sqrt"), std::string::npos)
      << nan.activity_reason;
  // -(+0) is -0: zero in value, not in bits.
  const ir::LoweringInfo neg = lower(-u.now());
  EXPECT_FALSE(neg.activity);
  EXPECT_NE(neg.activity_reason.find("-0"), std::string::npos)
      << neg.activity_reason;
  // A sum of zeros is +0 as soon as one term is: proven.
  const ir::LoweringInfo ok = lower(u.now() - u.at_shifted(0, {1, 0}));
  EXPECT_TRUE(ok.activity) << ok.activity_reason;
  EXPECT_EQ(ok.activity_clusters.size(), 1U);
  EXPECT_EQ(ok.activity_clusters[0].reads.at(0).widths,
            (std::vector<int>{1, 0}));
  const core::Operator op({ir::Eq(u.forward(), u.now() + 1)});
  EXPECT_NE(op.describe().find("active-box stepping off"), std::string::npos)
      << op.describe();
}

TEST(Activity, DistributedGridsKeepFullSweepKernels) {
  smpi::launch({.nranks = 2, .transport = smpi::TransportKind::Threads},
               [](smpi::Communicator& comm) {
                 const Grid g(std::vector<std::int64_t>(3, 16),
                              std::vector<double>(3, 15.0), comm);
                 models::AcousticModel model(g, kOrder, 1.5, 4);
                 const auto op = model.make_operator({});
                 EXPECT_FALSE(op->info().activity);
                 EXPECT_NE(op->info().activity_reason.find("distributed"),
                           std::string::npos);
                 const std::string& c = op->ccode();
                 EXPECT_EQ(c.find("jitfd_box"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_ab_"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_ar_"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_row"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_bits"), std::string::npos);
                 EXPECT_EQ(model.wavefield().activity_rows(), 0);
               });
}

}  // namespace
