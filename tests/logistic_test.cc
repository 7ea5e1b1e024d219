#include "ml/logistic.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace d3l {
namespace {

TEST(LogisticTest, RejectsBadInput) {
  EXPECT_FALSE(TrainLogistic({}, {}).ok());
  EXPECT_FALSE(TrainLogistic({{1.0}}, {1, 0}).ok());
  EXPECT_FALSE(TrainLogistic({{1.0}, {1.0, 2.0}}, {1, 0}).ok());
  EXPECT_FALSE(TrainLogistic({{1.0}, {2.0}}, {1, 2}).ok());
}

TEST(LogisticTest, LearnsLinearlySeparableData) {
  // y = 1 iff x0 > 0.5.
  std::vector<std::vector<double>> xs;
  std::vector<int> ys;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    double x = rng.UniformDouble();
    xs.push_back({x, rng.UniformDouble()});
    ys.push_back(x > 0.5 ? 1 : 0);
  }
  auto model = TrainLogistic(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->Accuracy(xs, ys), 0.97);
  // The discriminative feature gets the dominant weight.
  EXPECT_GT(std::abs(model->weights()[0]), 5 * std::abs(model->weights()[1]));
}

TEST(LogisticTest, CoefficientSignsMatchDirection) {
  // Distances: smaller -> related(1). Coefficient must be negative.
  std::vector<std::vector<double>> xs;
  std::vector<int> ys;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    bool related = rng.Chance(0.5);
    double d = related ? rng.UniformDouble(0.0, 0.4) : rng.UniformDouble(0.6, 1.0);
    xs.push_back({d});
    ys.push_back(related ? 1 : 0);
  }
  auto model = TrainLogistic(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->weights()[0], 0);
  EXPECT_GE(model->Accuracy(xs, ys), 0.98);
}

TEST(LogisticTest, ProbabilitiesAreCalibratedOnNoisyData) {
  std::vector<std::vector<double>> xs;
  std::vector<int> ys;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    double x = rng.UniformDouble(-2, 2);
    double p = 1.0 / (1.0 + std::exp(-2.0 * x));
    xs.push_back({x});
    ys.push_back(rng.Chance(p) ? 1 : 0);
  }
  auto model = TrainLogistic(xs, ys);
  ASSERT_TRUE(model.ok());
  // Recovered coefficient near the generating one (2.0).
  EXPECT_NEAR(model->weights()[0], 2.0, 0.4);
  EXPECT_NEAR(model->PredictProbability({0.0}), 0.5, 0.06);
}

TEST(LogisticTest, RegularizationShrinksWeights) {
  std::vector<std::vector<double>> xs;
  std::vector<int> ys;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    double x = rng.UniformDouble();
    xs.push_back({x});
    ys.push_back(x > 0.5 ? 1 : 0);
  }
  LogisticOptions weak;
  weak.l2 = 1e-4;
  LogisticOptions strong;
  strong.l2 = 10.0;
  auto m_weak = TrainLogistic(xs, ys, weak);
  auto m_strong = TrainLogistic(xs, ys, strong);
  ASSERT_TRUE(m_weak.ok());
  ASSERT_TRUE(m_strong.ok());
  EXPECT_GT(std::abs(m_weak->weights()[0]), std::abs(m_strong->weights()[0]));
}

}  // namespace
}  // namespace d3l
