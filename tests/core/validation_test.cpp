// Input-validation contract of the host entry points: the serving layer
// relays these messages verbatim to clients, so every malformed call must
// raise std::invalid_argument with a message that names the entry point and
// echoes the offending values — never an assert or a silent wrong answer.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/topk.hpp"
#include "data/distributions.hpp"
#include "simgpu/simgpu.hpp"

namespace topk {
namespace {

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(SelectBatchValidation, EmptyBatch) {
  simgpu::Device dev;
  const auto data = data::uniform_values(100, 1);
  const std::string msg = message_of(
      [&] { (void)select_batch(dev, data, 0, 100, 5, Algo::kAirTopk); });
  EXPECT_NE(msg.find("select_batch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("batch must be > 0"), std::string::npos) << msg;
}

TEST(SelectBatchValidation, ZeroK) {
  simgpu::Device dev;
  const auto data = data::uniform_values(100, 2);
  const std::string msg = message_of(
      [&] { (void)select_batch(dev, data, 1, 100, 0, Algo::kAirTopk); });
  EXPECT_NE(msg.find("select_batch"), std::string::npos) << msg;
  EXPECT_NE(msg.find("k must be >= 1"), std::string::npos) << msg;
}

TEST(SelectBatchValidation, KLargerThanN) {
  simgpu::Device dev;
  const auto data = data::uniform_values(200, 3);
  const std::string msg = message_of(
      [&] { (void)select_batch(dev, data, 2, 100, 101, Algo::kAirTopk); });
  EXPECT_NE(msg.find("k=101"), std::string::npos) << msg;
  EXPECT_NE(msg.find("n=100"), std::string::npos) << msg;
}

TEST(SelectBatchValidation, MismatchedRowLengths) {
  simgpu::Device dev;
  // 3 rows of 100 claimed, but only 250 keys supplied.
  const auto data = data::uniform_values(250, 4);
  const std::string msg = message_of(
      [&] { (void)select_batch(dev, data, 3, 100, 5, Algo::kAirTopk); });
  EXPECT_NE(msg.find("250"), std::string::npos) << msg;
  EXPECT_NE(msg.find("300"), std::string::npos) << msg;
  EXPECT_NE(msg.find("mismatched row lengths"), std::string::npos) << msg;
}

TEST(SelectBatchValidation, ZeroRowLength) {
  simgpu::Device dev;
  const std::vector<float> data;
  const std::string msg = message_of(
      [&] { (void)select_batch(dev, data, 1, 0, 1, Algo::kAirTopk); });
  EXPECT_NE(msg.find("row length n must be > 0"), std::string::npos) << msg;
}

TEST(SelectValidation, EmptyInput) {
  simgpu::Device dev;
  const std::vector<float> data;
  EXPECT_THROW((void)select(dev, data, 1, Algo::kAirTopk),
               std::invalid_argument);
}

TEST(SelectValidation, KLargerThanInput) {
  simgpu::Device dev;
  const auto data = data::uniform_values(10, 5);
  const std::string msg =
      message_of([&] { (void)select(dev, data, 11, Algo::kAirTopk); });
  EXPECT_NE(msg.find("select"), std::string::npos) << msg;
  EXPECT_NE(msg.find("k=11"), std::string::npos) << msg;
}

TEST(SelectValidation, ValidationPrecedesExecutionForAuto) {
  // kAuto must not mask validation: the recommender itself rejects the
  // degenerate shape before any device work happens.
  simgpu::Device dev;
  const auto data = data::uniform_values(10, 6);
  EXPECT_THROW((void)select(dev, data, 0, Algo::kAuto),
               std::invalid_argument);
  EXPECT_THROW((void)select_batch(dev, data, 0, 10, 2, Algo::kAuto),
               std::invalid_argument);
}

TEST(SelectValidation, AutoSelectsAndVerifies) {
  simgpu::Device dev;
  const auto data = data::uniform_values(4096, 7);
  const SelectResult r = select(dev, data, 16, Algo::kAuto);
  EXPECT_TRUE(verify_topk(data, 16, r).empty());
}

TEST(SelectValidation, AutoHonorsGreatest) {
  // Regression guard: kAuto must resolve before the greatest-K negation
  // decision, otherwise AIR would double-negate.
  simgpu::Device dev;
  const auto data = data::normal_values(2048, 8);
  SelectOptions opt;
  opt.greatest = true;
  const SelectResult r = select(dev, data, 10, Algo::kAuto, opt);
  std::vector<float> want(data.begin(), data.end());
  std::sort(want.begin(), want.end(), std::greater<>());
  std::vector<float> got = r.values;
  std::sort(got.begin(), got.end(), std::greater<>());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], want[i]) << "position " << i;
  }
}

TEST(ReferenceValidation, ReferenceSelectRejectsKOutsideOneToN) {
  const std::vector<float> data = {3.0f, 1.0f, 2.0f};
  const std::string zero = message_of([&] { (void)reference_select(data, 0); });
  EXPECT_NE(zero.find("reference_select"), std::string::npos) << zero;
  EXPECT_NE(zero.find("k=0"), std::string::npos) << zero;
  const std::string over =
      message_of([&] { (void)reference_select(data, 5); });
  EXPECT_NE(over.find("k=5"), std::string::npos) << over;
  EXPECT_NE(over.find("n=3"), std::string::npos) << over;
  EXPECT_EQ(reference_select(data, 3).values.size(), 3u);
}

TEST(ReferenceValidation, VerifyTopkRejectsKOutsideOneToN) {
  const std::vector<float> data = {3.0f, 1.0f, 2.0f};
  EXPECT_NE(verify_topk(data, 0, SelectResult{}).find("k=0"),
            std::string::npos);
  SelectResult five;
  five.values = {1.0f, 2.0f, 3.0f, 3.0f, 3.0f};
  five.indices = {1, 2, 0, 0, 0};
  EXPECT_NE(verify_topk(data, 5, five).find("k=5"), std::string::npos);
  EXPECT_TRUE(verify_topk(data, 3, reference_select(data, 3)).empty());
}

}  // namespace
}  // namespace topk
