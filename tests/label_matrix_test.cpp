#include "data/label_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "data/synthetic.hpp"

namespace groupfel::data {
namespace {

LabelMatrix sample_matrix() {
  return LabelMatrix({{3, 0, 1}, {0, 5, 0}, {2, 2, 2}}, 3);
}

TEST(LabelMatrix, BasicAccessors) {
  const LabelMatrix m = sample_matrix();
  EXPECT_EQ(m.num_clients(), 3u);
  EXPECT_EQ(m.num_labels(), 3u);
  EXPECT_EQ(m.row(1)[1], 5u);
  EXPECT_EQ(m.client_total(0), 4u);
  EXPECT_EQ(m.client_total(2), 6u);
}

TEST(LabelMatrix, GlobalCounts) {
  const LabelMatrix m = sample_matrix();
  const auto g = m.global_counts();
  EXPECT_EQ(g[0], 5u);
  EXPECT_EQ(g[1], 7u);
  EXPECT_EQ(g[2], 3u);
}

TEST(LabelMatrix, Submatrix) {
  const LabelMatrix m = sample_matrix();
  const std::vector<std::size_t> pick{2, 0};
  const LabelMatrix sub = m.submatrix(pick);
  EXPECT_EQ(sub.num_clients(), 2u);
  EXPECT_EQ(sub.row(0)[0], 2u);  // row of client 2
  EXPECT_EQ(sub.row(1)[0], 3u);  // row of client 0
}

TEST(LabelMatrix, RejectsRaggedRows) {
  EXPECT_THROW(LabelMatrix({{1, 2}, {1}}, 2), std::invalid_argument);
}

TEST(LabelMatrix, FromShardsMatchesCounts) {
  runtime::Rng rng(1);
  SyntheticSpec spec;
  spec.num_classes = 4;
  spec.label_noise = 0.0;
  auto ds = std::make_shared<DataSet>(make_synthetic(spec, 40, rng));
  std::vector<ClientShard> shards;
  shards.emplace_back(ds, std::vector<std::size_t>{0, 1, 2, 3});    // one of each
  shards.emplace_back(ds, std::vector<std::size_t>{4, 8, 12});      // three label-0
  const LabelMatrix m = LabelMatrix::from_shards(shards);
  EXPECT_EQ(m.num_clients(), 2u);
  EXPECT_EQ(m.num_labels(), 4u);
  EXPECT_EQ(m.row(0)[0], 1u);
  EXPECT_EQ(m.row(1)[0], 3u);
  EXPECT_EQ(m.row(1)[1], 0u);
}

TEST(LabelMatrix, EmptyShardsGiveEmptyMatrix) {
  const LabelMatrix m = LabelMatrix::from_shards({});
  EXPECT_EQ(m.num_clients(), 0u);
}

core::ExperimentSpec descriptor_spec(core::ClientStateMode mode) {
  core::ExperimentSpec spec;
  spec.num_clients = 300;
  spec.size_mean = 30;
  spec.size_std = 10;
  spec.size_min = 10;
  spec.size_max = 50;
  spec.test_size = 32;
  spec.mlp_hidden = 8;
  spec.client_state = mode;
  return spec;
}

constexpr core::ClientStateMode kDescriptorModes[] = {
    core::ClientStateMode::kLazy, core::ClientStateMode::kDescriptorResident};

TEST(LabelMatrix, AliasesTheDescriptorTable) {
  for (const auto mode : kDescriptorModes) {
    const core::Experiment exp =
        core::build_experiment(descriptor_spec(mode));
    const ClientPopulation* pop = exp.topology.clients.population();
    ASSERT_NE(pop, nullptr);
    const LabelMatrix m = exp.topology.clients.label_matrix();
    ASSERT_EQ(m.num_clients(), pop->num_clients());
    ASSERT_EQ(m.num_labels(), pop->num_classes());
    for (std::size_t i = 0; i < m.num_clients(); ++i)
      ASSERT_EQ(m.row(i).data(), pop->label_counts(i).data())
          << "mode " << static_cast<int>(mode) << " client " << i;
  }
}

TEST(LabelMatrix, OutlivesItsStoreAndExperiment) {
  for (const auto mode : kDescriptorModes) {
    LabelMatrix m;
    std::vector<LabelMatrix::Count> want;
    {
      const core::Experiment exp =
          core::build_experiment(descriptor_spec(mode));
      m = exp.topology.clients.label_matrix();
      const auto flat = exp.topology.clients.population()->flat_counts();
      want.assign(flat.begin(), flat.end());
    }
    ASSERT_EQ(m.num_clients() * m.num_labels(), want.size());
    for (std::size_t i = 0; i < m.num_clients(); ++i)
      for (std::size_t j = 0; j < m.num_labels(); ++j)
        ASSERT_EQ(m.row(i)[j], want[i * m.num_labels() + j]);
  }
}

}  // namespace
}  // namespace groupfel::data
