// Wire-format tests: round trips and adversarial payload handling.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "registers/messages.h"

namespace bftreg::registers {
namespace {

TEST(MessagesTest, RoundTripQueryTag) {
  RegisterMessage m;
  m.type = MsgType::kQueryTag;
  m.op_id = 42;
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MsgType::kQueryTag);
  EXPECT_EQ(parsed->op_id, 42u);
}

TEST(MessagesTest, RoundTripPutData) {
  RegisterMessage m;
  m.type = MsgType::kPutData;
  m.op_id = 7;
  m.tag = Tag{99, ProcessId::writer(3)};
  m.value = Bytes{1, 2, 3, 4, 5};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tag, m.tag);
  EXPECT_EQ(parsed->value, m.value);
}

// parse() leaves the value in the frame: the parsed value is a view into
// the payload it was given (same bytes, same owner), not a copy, and the
// message it re-encodes to is the original frame byte for byte.
TEST(MessagesTest, ParsedValueAliasesTheFrame) {
  RegisterMessage m;
  m.type = MsgType::kDataResp;
  m.op_id = 11;
  m.object = 3;
  m.tag = Tag{4, ProcessId::writer(1)};
  Bytes element(5000);
  for (size_t i = 0; i < element.size(); ++i) element[i] = static_cast<uint8_t>(i * 7);
  m.value = element;
  const Payload frame(m.encode());

  const auto parsed = RegisterMessage::parse(frame);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->value.size(), element.size());
  EXPECT_GE(parsed->value.data(), frame.data());
  EXPECT_LE(parsed->value.data() + parsed->value.size(), frame.data() + frame.size());
  EXPECT_EQ(parsed->value.owner(), frame.owner());
  EXPECT_EQ(parsed->value, element);
  EXPECT_EQ(parsed->encode(), frame.to_bytes());

  // The view keeps the frame alive on its own.
  const Payload value = [&] {
    const Payload local(m.encode());
    return RegisterMessage::parse(local)->value;
  }();
  EXPECT_EQ(value, element);
}

TEST(MessagesTest, RoundTripHistory) {
  RegisterMessage m;
  m.type = MsgType::kHistoryResp;
  m.op_id = 1;
  m.history = {TaggedValue{Tag{1, ProcessId::writer(0)}, Bytes{9}},
               TaggedValue{Tag{2, ProcessId::writer(1)}, Bytes{8, 8}},
               TaggedValue{Tag::initial(), {}}};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->history, m.history);
}

TEST(MessagesTest, RoundTripTagHistory) {
  RegisterMessage m;
  m.type = MsgType::kTagHistoryResp;
  m.tags = {Tag::initial(), Tag{5, ProcessId::writer(2)}};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tags, m.tags);
}

TEST(MessagesTest, RoundTripEveryType) {
  for (uint8_t t = 1; t <= static_cast<uint8_t>(MsgType::kDataUpdate); ++t) {
    RegisterMessage m;
    m.type = static_cast<MsgType>(t);
    m.op_id = t;
    auto parsed = RegisterMessage::parse(m.encode());
    ASSERT_TRUE(parsed.has_value()) << "type=" << int(t);
    EXPECT_EQ(parsed->type, m.type);
  }
}

TEST(MessagesTest, RejectsEmptyPayload) {
  EXPECT_FALSE(RegisterMessage::parse({}).has_value());
}

TEST(MessagesTest, RejectsUnknownType) {
  RegisterMessage m;
  m.type = MsgType::kQueryTag;
  Bytes b = m.encode();
  b[0] = 0;  // below range
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
  b[0] = 200;  // above range
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, RejectsTruncation) {
  RegisterMessage m;
  m.type = MsgType::kPutData;
  m.value = Bytes(100, 7);
  Bytes b = m.encode();
  for (size_t cut : {size_t{1}, size_t{10}, size_t{50}, b.size() - 1}) {
    Bytes t(b.begin(), b.begin() + cut);
    EXPECT_FALSE(RegisterMessage::parse(t).has_value()) << "cut=" << cut;
  }
}

TEST(MessagesTest, RejectsTrailingGarbage) {
  RegisterMessage m;
  m.type = MsgType::kAck;
  Bytes b = m.encode();
  b.push_back(0xFF);
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, RejectsForgedHistoryCount) {
  // Claim 2^30 history entries with a tiny buffer: must fail fast, not OOM.
  RegisterMessage m;
  m.type = MsgType::kHistoryResp;
  Bytes b = m.encode();
  // history count lives right after type(1) + op_id(8) + object(4) +
  // tag(13) + value len(4).
  const size_t off = 1 + 8 + 4 + 13 + 4;
  b[off] = 0xFF;
  b[off + 1] = 0xFF;
  b[off + 2] = 0xFF;
  b[off + 3] = 0x3F;
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, SurvivesRandomFuzzWithoutCrashing) {
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.uniform(128));
    for (auto& v : junk) v = static_cast<uint8_t>(rng.uniform(256));
    auto parsed = RegisterMessage::parse(junk);  // must not crash or hang
    (void)parsed;
  }
  SUCCEED();
}

TEST(MessagesTest, MutationFuzzRoundTripNeverCrashes) {
  Rng rng(123);
  RegisterMessage m;
  m.type = MsgType::kHistoryResp;
  m.history = {TaggedValue{Tag{1, ProcessId::writer(0)}, Bytes(32, 1)},
               TaggedValue{Tag{2, ProcessId::writer(0)}, Bytes(32, 2)}};
  const Bytes base = m.encode();
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = base;
    const size_t flips = 1 + rng.uniform(4);
    for (size_t j = 0; j < flips; ++j) {
      mutated[rng.uniform(mutated.size())] ^= static_cast<uint8_t>(1 + rng.uniform(255));
    }
    auto parsed = RegisterMessage::parse(mutated);
    (void)parsed;
  }
  SUCCEED();
}

}  // namespace
}  // namespace bftreg::registers
