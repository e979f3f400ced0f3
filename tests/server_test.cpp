// Unit tests for RegisterServer (Fig. 3 / Fig. 6 server logic).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/rng.h"
#include "registers/server.h"
#include "runtime/thread_network.h"
#include "sim/simulator.h"

namespace bftreg::registers {
namespace {

class ClientProbe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    auto msg = RegisterMessage::parse(env.payload);
    ASSERT_TRUE(msg.has_value());
    received.push_back(*msg);
  }
  std::vector<RegisterMessage> received;
};

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : sim_(sim::SimConfig::with_fixed_delay(1, 10)),
        config_{make_config()},
        server_(ProcessId::server(0), config_, &sim_, Bytes{'v', '0'}) {
    sim_.add_process(ProcessId::server(0), &server_);
    sim_.add_process(writer_, &writer_probe_);
    sim_.add_process(reader_, &reader_probe_);
  }

  static SystemConfig make_config() {
    SystemConfig c;
    c.n = 5;
    c.f = 1;
    c.initial_value = Bytes{'v', '0'};
    return c;
  }

  void send(const ProcessId& from, const RegisterMessage& msg) {
    sim_.send(from, ProcessId::server(0), msg.encode());
    sim_.run_until_idle();
  }

  RegisterMessage put(uint64_t op, Tag tag, Bytes value) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.op_id = op;
    m.tag = tag;
    m.value = std::move(value);
    return m;
  }

  sim::Simulator sim_;
  SystemConfig config_;
  RegisterServer server_;
  ProcessId writer_ = ProcessId::writer(0);
  ProcessId reader_ = ProcessId::reader(0);
  ClientProbe writer_probe_;
  ClientProbe reader_probe_;
};

TEST_F(ServerFixture, InitialStateHasT0) {
  EXPECT_EQ(server_.max_tag(), Tag::initial());
  EXPECT_EQ(server_.max_value(), (Bytes{'v', '0'}));
  EXPECT_EQ(server_.store().size(), 1u);
}

TEST_F(ServerFixture, QueryTagReturnsMaxTag) {
  RegisterMessage q;
  q.type = MsgType::kQueryTag;
  q.op_id = 5;
  send(writer_, q);
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kTagResp);
  EXPECT_EQ(writer_probe_.received[0].op_id, 5u);
  EXPECT_EQ(writer_probe_.received[0].tag, Tag::initial());
}

TEST_F(ServerFixture, PutDataStoresAndAcks) {
  const Tag t{1, ProcessId::writer(0)};
  send(writer_, put(9, t, Bytes{'a'}));
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kAck);
  EXPECT_EQ(writer_probe_.received[0].tag, t);
  EXPECT_EQ(server_.max_tag(), t);
  EXPECT_EQ(server_.max_value(), (Bytes{'a'}));
}

TEST_F(ServerFixture, AllPolicyKeepsInterleavedTags) {
  send(writer_, put(1, Tag{5, ProcessId::writer(0)}, Bytes{'5'}));
  send(writer_, put(2, Tag{3, ProcessId::writer(1)}, Bytes{'3'}));
  EXPECT_EQ(server_.store().size(), 3u);  // t0, 3, 5
  EXPECT_EQ(server_.max_tag(), (Tag{5, ProcessId::writer(0)}));
}

TEST_F(ServerFixture, LowerPutStillAcked) {
  send(writer_, put(1, Tag{5, ProcessId::writer(0)}, Bytes{'5'}));
  send(writer_, put(2, Tag{3, ProcessId::writer(1)}, Bytes{'3'}));
  EXPECT_EQ(writer_probe_.received.size(), 2u);
  EXPECT_EQ(writer_probe_.received[1].type, MsgType::kAck);
}

TEST_F(ServerFixture, QueryDataReturnsNewestPair) {
  send(writer_, put(1, Tag{2, ProcessId::writer(0)}, Bytes{'b'}));
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.op_id = 77;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  const auto& resp = reader_probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataResp);
  EXPECT_EQ(resp.tag, (Tag{2, ProcessId::writer(0)}));
  EXPECT_EQ(resp.value, (Bytes{'b'}));
}

TEST_F(ServerFixture, QueryHistoryReturnsEverything) {
  send(writer_, put(1, Tag{1, ProcessId::writer(0)}, Bytes{'1'}));
  send(writer_, put(2, Tag{2, ProcessId::writer(0)}, Bytes{'2'}));
  RegisterMessage q;
  q.type = MsgType::kQueryHistory;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].history.size(), 3u);  // t0 + two writes
}

TEST_F(ServerFixture, QueryTagHistoryReturnsAllTags) {
  send(writer_, put(1, Tag{4, ProcessId::writer(1)}, Bytes{'x'}));
  RegisterMessage q;
  q.type = MsgType::kQueryTagHistory;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].tags.size(), 2u);
}

TEST_F(ServerFixture, QueryDataAtKnownTagAnswersImmediately) {
  const Tag t{1, ProcessId::writer(0)};
  send(writer_, put(1, t, Bytes{'k'}));
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 3;
  q.tag = t;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[0].value, (Bytes{'k'}));
}

TEST_F(ServerFixture, QueryDataAtUnknownTagDefersUntilPutArrives) {
  const Tag t{7, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 11;
  q.tag = t;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtMissing);

  // The PUT-DATA for that tag arrives later: the server answers the
  // deferred query.
  send(writer_, put(1, t, Bytes{'d'}));
  ASSERT_EQ(reader_probe_.received.size(), 2u);
  EXPECT_EQ(reader_probe_.received[1].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[1].op_id, 11u);
  EXPECT_EQ(reader_probe_.received[1].value, (Bytes{'d'}));
}

TEST_F(ServerFixture, ReadDoneCancelsDeferredQuery) {
  const Tag t{7, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 11;
  q.tag = t;
  send(reader_, q);
  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = 11;
  send(reader_, done);
  send(writer_, put(1, t, Bytes{'d'}));
  // Only the initial DATA-AT-MISSING; no deferred answer after READ-DONE.
  ASSERT_EQ(reader_probe_.received.size(), 1u);
}

TEST_F(ServerFixture, MalformedPayloadIgnored) {
  sim_.send(writer_, ProcessId::server(0), Bytes{0xde, 0xad});
  sim_.run_until_idle();
  EXPECT_TRUE(writer_probe_.received.empty());
  EXPECT_EQ(server_.store().size(), 1u);
}

TEST_F(ServerFixture, StoredBytesTracksPayloads) {
  const size_t initial = server_.stored_bytes();
  send(writer_, put(1, Tag{1, ProcessId::writer(0)}, Bytes(100, 0)));
  EXPECT_EQ(server_.stored_bytes(), initial + 100);
}

TEST_F(ServerFixture, ReadOnlyQueriesDoNotCreateStores) {
  ASSERT_EQ(server_.objects_known(), 1u);  // only the default register

  RegisterMessage q;
  q.op_id = 1;
  q.object = 42;
  for (MsgType type : {MsgType::kQueryTag, MsgType::kQueryData,
                       MsgType::kQueryHistory, MsgType::kQueryTagHistory}) {
    q.type = type;
    send(reader_, q);
  }
  ASSERT_EQ(reader_probe_.received.size(), 4u);
  // Every answer is the lazy initialization {(t0, v0)} -- but the store for
  // object 42 was never materialized.
  EXPECT_EQ(reader_probe_.received[0].tag, Tag::initial());
  EXPECT_EQ(reader_probe_.received[1].value, (Bytes{'v', '0'}));
  ASSERT_EQ(reader_probe_.received[2].history.size(), 1u);
  EXPECT_EQ(reader_probe_.received[2].history[0].value, (Bytes{'v', '0'}));
  ASSERT_EQ(reader_probe_.received[3].tags.size(), 1u);
  EXPECT_EQ(reader_probe_.received[3].tags[0], Tag::initial());
  EXPECT_EQ(server_.objects_known(), 1u);

  // DATA-AT for t0 on an unknown object answers v0 without a store either.
  q.type = MsgType::kQueryDataAt;
  q.tag = Tag::initial();
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 5u);
  EXPECT_EQ(reader_probe_.received[4].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[4].value, (Bytes{'v', '0'}));
  EXPECT_EQ(server_.objects_known(), 1u);
}

TEST_F(ServerFixture, QueryDataBatchDoesNotCreateStores) {
  RegisterMessage q;
  q.type = MsgType::kQueryDataBatch;
  q.op_id = 9;
  q.objects = {7, 8, 9, 10};
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  const auto& resp = reader_probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataBatchResp);
  ASSERT_EQ(resp.history.size(), 4u);
  for (const auto& tv : resp.history) {
    EXPECT_EQ(tv.tag, Tag::initial());
    EXPECT_EQ(tv.value, (Bytes{'v', '0'}));
  }
  // A (possibly Byzantine) client probing arbitrary ids must not balloon
  // server state: no stores were created for objects 7..10.
  EXPECT_EQ(server_.objects_known(), 1u);
}

TEST_F(ServerFixture, ReadDoneCancelsOnlyThatReadersWaiter) {
  // Two clients defer on the same unknown (object, tag); READ-DONE from one
  // must cancel only its own waiter, leaving the other to be satisfied.
  const Tag t{9, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.tag = t;
  q.op_id = 21;
  send(reader_, q);
  q.op_id = 22;
  send(writer_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtMissing);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kDataAtMissing);

  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = 21;
  send(reader_, done);

  send(writer_, put(1, t, Bytes{'z'}));
  // The writer-probe waiter survives the reader's cancel: it gets the
  // deferred answer (plus its own put ACK); the reader gets nothing more.
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  ASSERT_EQ(writer_probe_.received.size(), 3u);
  EXPECT_EQ(writer_probe_.received[1].type, MsgType::kDataAtResp);
  EXPECT_EQ(writer_probe_.received[1].op_id, 22u);
  EXPECT_EQ(writer_probe_.received[1].value, (Bytes{'z'}));
  EXPECT_EQ(writer_probe_.received[2].type, MsgType::kAck);
}

// MaxOnly policy (Fig. 3 verbatim).
TEST(ServerMaxOnlyTest, DropsNonIncreasingTags) {
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  SystemConfig cfg;
  cfg.n = 5;
  cfg.f = 1;
  cfg.store_policy = StorePolicy::kMaxOnly;
  RegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{});
  ClientProbe probe;
  sim.add_process(ProcessId::server(0), &server);
  sim.add_process(ProcessId::writer(0), &probe);

  auto put = [&](Tag tag, Bytes v) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.tag = tag;
    m.value = std::move(v);
    sim.send(ProcessId::writer(0), ProcessId::server(0), m.encode());
    sim.run_until_idle();
  };
  put(Tag{5, ProcessId::writer(0)}, Bytes{'5'});
  put(Tag{3, ProcessId::writer(1)}, Bytes{'3'});  // lower: dropped
  put(Tag{5, ProcessId::writer(0)}, Bytes{'X'});  // equal: dropped
  EXPECT_EQ(server.store().size(), 2u);  // t0 and tag 5
  EXPECT_EQ(server.max_value(), (Bytes{'5'}));
  EXPECT_EQ(probe.received.size(), 3u);  // all three ACKed regardless
}

// --- sharded object table (SystemConfig::server_shards) ---------------------

class ShardedServerFixture : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  ShardedServerFixture()
      : sim_(sim::SimConfig::with_fixed_delay(1, 10)),
        server_(ProcessId::server(0), make_config(), &sim_, Bytes{'v', '0'}) {
    sim_.add_process(ProcessId::server(0), &server_);
    sim_.add_process(writer_, &probe_);
  }

  static SystemConfig make_config() {
    SystemConfig c;
    c.n = 5;
    c.f = 1;
    c.initial_value = Bytes{'v', '0'};
    c.server_shards = kShards;
    return c;
  }

  void send(const RegisterMessage& msg) {
    sim_.send(writer_, ProcessId::server(0), msg.encode());
    sim_.run_until_idle();
  }

  void put(uint32_t object, Tag tag, Bytes value) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.object = object;
    m.tag = tag;
    m.value = std::move(value);
    send(m);
  }

  sim::Simulator sim_;
  RegisterServer server_;
  ProcessId writer_ = ProcessId::writer(0);
  ClientProbe probe_;
};

TEST_F(ShardedServerFixture, ReportsOneDeliveryShardPerConfigShard) {
  EXPECT_EQ(server_.delivery_shards(), kShards);
}

TEST_F(ShardedServerFixture, ShardOfPeeksObjectConsistently) {
  // Same object -> same shard regardless of message type; every shard in
  // range; the mapping spreads sequential ids across more than one shard.
  std::vector<uint32_t> seen;
  for (uint32_t object = 0; object < 32; ++object) {
    RegisterMessage q;
    q.type = MsgType::kQueryTag;
    q.object = object;
    net::Envelope env;
    env.payload = Payload(q.encode());
    const uint32_t shard = server_.shard_of(env);
    ASSERT_LT(shard, kShards);
    seen.push_back(shard);

    RegisterMessage p;
    p.type = MsgType::kPutData;
    p.object = object;
    p.value = Bytes{'x'};
    net::Envelope put_env;
    put_env.payload = Payload(p.encode());
    EXPECT_EQ(server_.shard_of(put_env), shard) << "object " << object;
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_GT(seen.size(), 1u);  // hash actually distributes
}

TEST_F(ShardedServerFixture, MalformedPayloadRoutesToShardZero) {
  net::Envelope env;
  env.payload = Payload(Bytes{1, 2, 3});  // shorter than the fixed prefix
  EXPECT_EQ(server_.shard_of(env), 0u);
}

TEST_F(ShardedServerFixture, PutsAndQueriesSpanShards) {
  constexpr uint32_t kObjects = 24;
  for (uint32_t object = 0; object < kObjects; ++object) {
    put(object, Tag{object + 1, writer_}, Bytes{static_cast<uint8_t>(object)});
  }
  EXPECT_EQ(server_.objects_known(), kObjects);
  for (uint32_t object = 0; object < kObjects; ++object) {
    EXPECT_EQ(server_.max_tag(object), (Tag{object + 1, writer_}));
    EXPECT_EQ(server_.max_value(object), Bytes{static_cast<uint8_t>(object)});
  }

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.object = 17;
  q.op_id = 42;
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].type, MsgType::kDataResp);
  EXPECT_EQ(probe_.received[0].tag, (Tag{18, writer_}));
  EXPECT_EQ(probe_.received[0].value, (Bytes{17}));
}

TEST_F(ShardedServerFixture, BatchReadsAcrossShardOwners) {
  put(3, Tag{1, writer_}, Bytes{'a'});
  put(9, Tag{2, writer_}, Bytes{'b'});
  put(14, Tag{3, writer_}, Bytes{'c'});

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryDataBatch;
  q.op_id = 7;
  q.objects = {3, 9, 14, 1000};  // 1000: never seen, reads as lazy init
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  const auto& resp = probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataBatchResp);
  ASSERT_EQ(resp.history.size(), 4u);
  EXPECT_EQ(resp.history[0].value, (Bytes{'a'}));
  EXPECT_EQ(resp.history[1].value, (Bytes{'b'}));
  EXPECT_EQ(resp.history[2].value, (Bytes{'c'}));
  EXPECT_EQ(resp.history[3].tag, Tag::initial());
  EXPECT_EQ(resp.history[3].value, (Bytes{'v', '0'}));
  // The never-seen object was answered without materializing state.
  EXPECT_EQ(server_.objects_known(), 4u);  // 0 (default), 3, 9, 14
}

TEST_F(ShardedServerFixture, OversizeValuesRoundTripThroughCache) {
  // Values past NewestCache::kInlineValueCap take the shared_ptr path.
  Bytes big(NewestCache::kInlineValueCap + 500, uint8_t{0xAB});
  put(5, Tag{1, writer_}, big);

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.object = 5;
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].value, big);

  // Shrink back under the cap: the inline path must supersede the pointer.
  put(5, Tag{2, writer_}, Bytes{'s'});
  probe_.received.clear();
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].tag, (Tag{2, writer_}));
  EXPECT_EQ(probe_.received[0].value, (Bytes{'s'}));
}

// A put acked by its owner shard must be visible to every QUERY-DATA-BATCH
// that arrives afterwards, even one delivered later in the same mailbox
// batch as an earlier request that read the object's old pair.
TEST_F(ShardedServerFixture, BatchReadInsideMailboxBatchSeesLaterAckedPut) {
  auto owner = [this](uint32_t object) {
    RegisterMessage q;
    q.type = MsgType::kQueryTag;
    q.object = object;
    net::Envelope env;
    env.payload = Payload(q.encode());
    return server_.shard_of(env);
  };
  const uint32_t home = 1;
  uint32_t other = home + 1;
  while (owner(other) == owner(home)) ++other;

  RegisterMessage q;
  q.type = MsgType::kQueryDataBatch;
  q.object = home;
  q.objects = {home, other};
  server_.on_batch_begin(owner(home));
  send(q);  // reads `other` as {t0, v0}
  put(other, Tag{1, writer_}, Bytes{'n'});  // owner shard publishes, acks
  ASSERT_EQ(probe_.received.back().type, MsgType::kAck);
  probe_.received.clear();
  send(q);
  server_.on_batch_end(owner(home));

  ASSERT_EQ(probe_.received.size(), 1u);
  ASSERT_EQ(probe_.received[0].history.size(), 2u);
  EXPECT_EQ(probe_.received[0].history[1].tag, (Tag{1, writer_}));
  EXPECT_EQ(probe_.received[0].history[1].value, (Bytes{'n'}));
}

TEST_F(ShardedServerFixture, StoredBytesTracksAcrossShards) {
  const size_t initial = server_.stored_bytes();  // object 0's lazy init
  put(1, Tag{1, writer_}, Bytes(100, 'x'));
  put(2, Tag{1, writer_}, Bytes(50, 'y'));
  // Each first put materializes {t0, v0} (2 bytes) plus the value.
  EXPECT_EQ(server_.stored_bytes(), initial + 2 + 100 + 2 + 50);
}

// --- object table growth (every newest-pair read: one table probe) ---------

/// Object `o`'s one written value: oversize (past the 32-byte inline cap,
/// so it takes the shared_ptr path) for every third object, inline
/// otherwise, and derived from `o` so a reply names the object it is for.
Bytes grown_value(uint32_t object) {
  Bytes v(object % 3 == 0 ? NewestCache::kInlineValueCap + 9 : 7);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(object * 31 + i);
  }
  return v;
}

/// The newest pair every read of `object` must return after its put, or
/// after the second put that GrowthSweep gives to early objects.
Tag grown_tag(uint32_t object, uint64_t round) {
  return Tag{round, ProcessId::writer(object % 2)};
}

class ServerTableGrowth : public ::testing::TestWithParam<uint32_t> {
 protected:
  ServerTableGrowth()
      : sim_(sim::SimConfig::with_fixed_delay(1, 10)),
        server_(ProcessId::server(0), make_config(GetParam()), &sim_,
                Bytes{'v', '0'}) {
    sim_.add_process(ProcessId::server(0), &server_);
    sim_.add_process(client_, &probe_);
  }

  static SystemConfig make_config(uint32_t shards) {
    SystemConfig c;
    c.n = 5;
    c.f = 1;
    c.initial_value = Bytes{'v', '0'};
    c.server_shards = shards;
    return c;
  }

  /// Sends one request and returns the server's one reply to it.
  RegisterMessage ask(RegisterMessage req) {
    probe_.received.clear();
    req.op_id = ++op_;
    sim_.send(client_, ProcessId::server(0), req.encode());
    sim_.run_until_idle();
    EXPECT_EQ(probe_.received.size(), 1u);
    return probe_.received.empty() ? RegisterMessage{} : probe_.received[0];
  }

  void put(uint32_t object, uint64_t round) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.object = object;
    m.tag = grown_tag(object, round);
    Bytes value = grown_value(object);
    if (round > 1) value.push_back(static_cast<uint8_t>(round));
    m.value = std::move(value);
    EXPECT_EQ(ask(m).type, MsgType::kAck);
  }

  /// Checks every object in [1, written] (and a few never-written ids)
  /// through QUERY-TAG, QUERY-DATA, QUERY-DATA-BATCH and QUERY-OBJECTS.
  void expect_served(uint32_t written, uint32_t rewritten) {
    auto expected = [&](uint32_t object) {
      if (object > written) return TaggedValue{Tag::initial(), Bytes{'v', '0'}};
      const uint64_t round = object <= rewritten ? 2 : 1;
      Bytes v = grown_value(object);
      if (round > 1) v.push_back(static_cast<uint8_t>(round));
      return TaggedValue{grown_tag(object, round), v};
    };
    std::vector<uint32_t> batch;
    for (uint32_t object = 1; object <= written + 3; ++object) {
      const TaggedValue want = expected(object);
      RegisterMessage q;
      q.object = object;
      q.type = MsgType::kQueryTag;
      EXPECT_EQ(ask(q).tag, want.tag) << "QUERY-TAG " << object;
      q.type = MsgType::kQueryData;
      const RegisterMessage data = ask(q);
      EXPECT_EQ(data.tag, want.tag) << "QUERY-DATA " << object;
      EXPECT_EQ(data.value, want.value) << "QUERY-DATA " << object;

      batch.push_back(object);
      if (batch.size() == 61 || object == written + 3) {
        RegisterMessage b;
        b.type = MsgType::kQueryDataBatch;
        b.object = batch.front();
        b.objects = batch;
        const RegisterMessage resp = ask(b);
        EXPECT_EQ(resp.type, MsgType::kDataBatchResp);
        EXPECT_EQ(resp.objects, batch);
        EXPECT_EQ(resp.history.size(), batch.size());
        for (size_t i = 0; i < std::min(batch.size(), resp.history.size());
             ++i) {
          EXPECT_EQ(resp.history[i], expected(batch[i]))
              << "QUERY-DATA-BATCH " << batch[i];
        }
        batch.clear();
      }
    }

    RegisterMessage q;
    q.type = MsgType::kQueryObjects;
    q.object = written;
    std::vector<uint32_t> want_ids(written + 1);
    for (uint32_t object = 0; object <= written; ++object) {
      want_ids[object] = object;
    }
    EXPECT_EQ(ask(q).objects, want_ids);  // sorted; object 0 always exists
    EXPECT_EQ(server_.objects_known(), written + 1);
  }

  sim::Simulator sim_;
  RegisterServer server_;
  ProcessId client_ = ProcessId::writer(0);
  ClientProbe probe_;
  uint64_t op_{0};
};

// 1500 objects take each shard's table from 16 slots through six (four
// shards) or seven (one shard) doublings. Reads are checked before the
// first growth, between growths, and after the last; objects written
// before a growth are rewritten after it, so the newest pair must follow
// the record into every new table generation.
TEST_P(ServerTableGrowth, ReadPathsServeNewestPairAcrossGrowths) {
  uint32_t written = 0;
  uint32_t rewritten = 0;
  for (const uint32_t checkpoint : {5u, 60u, 400u, 1500u}) {
    for (; written < checkpoint; ++written) put(written + 1, 1);
    expect_served(written, rewritten);
    for (; rewritten < written / 2; ++rewritten) put(rewritten + 1, 2);
    expect_served(written, rewritten);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, ServerTableGrowth, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return "shards" + std::to_string(info.param);
    });

/// Collects ACKs: acked[o] is set (release) when object o's put is acked.
class AckProbe final : public net::IProcess {
 public:
  explicit AckProbe(size_t objects) : acked(objects + 1) {}
  void on_message(const net::Envelope& env) override {
    auto msg = RegisterMessage::parse(env.payload);
    if (!msg || msg->type != MsgType::kAck || msg->object >= acked.size()) {
      return;
    }
    acked[msg->object].store(true, std::memory_order_release);
    acks.fetch_add(1, std::memory_order_release);
  }
  std::vector<std::atomic<bool>> acked;
  std::atomic<size_t> acks{0};
};

/// Hands each DATA-BATCH-RESP or DATA-RESP to the reader thread waiting
/// on it.
class ReplySlot final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    auto msg = RegisterMessage::parse(env.payload);
    if (!msg || (msg->type != MsgType::kDataBatchResp &&
                 msg->type != MsgType::kDataResp)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = std::move(*msg);
    cv_.notify_one();
  }
  /// Waits for the reply to `op_id`; nullopt after 30 s.
  std::optional<RegisterMessage> wait(uint64_t op_id) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::seconds(30), [&] {
          return reply_.has_value() && reply_->op_id == op_id;
        })) {
      return std::nullopt;
    }
    auto out = std::move(reply_);
    reply_.reset();
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<RegisterMessage> reply_;
};

// Real threads at server_shards = 4: the test thread puts 6000 objects
// (each shard's table doubles seven times) while three reader threads send
// QUERY-DATA-BATCH requests whose objects span all four owners, so shard
// threads probe tables the owner is growing. Every pair read must be the
// initial pair or the one published pair, and an object whose put was
// acked before the request was sent must never read as missing.
TEST(ServerTableGrowthConcurrency, BatchReadsAcrossOwnersWhileTablesGrow) {
  constexpr uint32_t kObjects = 6000;
  constexpr size_t kBatch = 24;
  constexpr size_t kReaders = 3;
  const Bytes v0{'v', '0'};
  const Tag published{1, ProcessId::writer(0)};

  runtime::ThreadNetwork net(runtime::RuntimeConfig{});
  SystemConfig config;
  config.n = 5;
  config.f = 1;
  config.initial_value = v0;
  config.server_shards = 4;
  const ProcessId server_id = ProcessId::server(0);
  RegisterServer server(server_id, config, &net, v0);
  const ProcessId writer = ProcessId::writer(0);
  AckProbe acks(kObjects);
  net.add_process(server_id, &server);
  net.add_process(writer, &acks);
  std::vector<std::unique_ptr<ReplySlot>> slots;
  for (size_t r = 0; r < kReaders; ++r) {
    slots.push_back(std::make_unique<ReplySlot>());
    net.add_process(ProcessId::reader(static_cast<uint32_t>(r)),
                    slots.back().get());
  }
  net.start();

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> bad_pair{0}, missing_acked{0}, timeouts{0};
  std::atomic<uint64_t> reads{0}, acked_reads{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const ProcessId self = ProcessId::reader(static_cast<uint32_t>(r));
      Rng rng(0x96a + r);
      uint64_t op = 0;
      // Keep reading for a few rounds after the last put.
      for (int tail = 0; tail < 20;) {
        if (!writing.load(std::memory_order_acquire)) ++tail;
        RegisterMessage q;
        q.type = MsgType::kQueryDataBatch;
        q.op_id = ++op;
        std::vector<bool> acked_before;
        for (size_t i = 0; i < kBatch; ++i) {
          // A few ids past kObjects are never written.
          const auto object =
              static_cast<uint32_t>(1 + rng.uniform(kObjects + 8));
          q.objects.push_back(object);
          acked_before.push_back(
              object <= kObjects &&
              acks.acked[object].load(std::memory_order_acquire));
        }
        q.object = q.objects.front();
        net.send(self, server_id, q.encode());
        const auto resp = slots[r]->wait(q.op_id);
        if (!resp || resp->history.size() != kBatch) {
          ++timeouts;
          return;
        }
        for (size_t i = 0; i < kBatch; ++i) {
          const TaggedValue& got = resp->history[i];
          const uint32_t object = q.objects[i];
          if (got.tag == Tag::initial()) {
            if (got.value != v0) ++bad_pair;
            if (acked_before[i]) ++missing_acked;
          } else {
            if (object > kObjects || got.tag != published ||
                got.value != grown_value(object)) {
              ++bad_pair;
            }
            if (acked_before[i]) ++acked_reads;
          }
        }
        ++reads;
      }
    });
  }

  // Puts from the test thread, at most 256 unacked at a time.
  for (uint32_t object = 1; object <= kObjects; ++object) {
    while (object - 1 - acks.acks.load(std::memory_order_acquire) >= 256) {
      std::this_thread::yield();
    }
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.op_id = object;
    m.object = object;
    m.tag = published;
    m.value = grown_value(object);
    net.send(writer, server_id, m.encode());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (acks.acks.load(std::memory_order_acquire) < kObjects &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writing.store(false, std::memory_order_release);
  for (auto& t : readers) t.join();
  net.stop();

  EXPECT_EQ(acks.acks.load(), kObjects);
  EXPECT_EQ(timeouts.load(), 0u);
  EXPECT_EQ(bad_pair.load(), 0u);
  EXPECT_EQ(missing_acked.load(), 0u);
  EXPECT_GE(reads.load(), kReaders * 20);
  EXPECT_GT(acked_reads.load(), 0u);
  EXPECT_EQ(server.objects_known(), kObjects + 1);
}

// A DATA-RESP for a bulk value is built as a view of the object's
// published pair, not a copy of it. Real threads at server_shards = 2: the
// test thread streams puts of 4 KiB values to one hot object while two
// readers ask for it -- by QUERY-DATA on the owner shard, and by a
// QUERY-DATA-BATCH routed to the other shard, whose thread reads the pair
// while the owner publishes newer ones. Every reply must carry exactly the
// value written under the tag it reports; under tsan this also shows the
// aliased bytes are never written once published.
TEST(ServerDataRespAliasing, RepliesStayIntactWhileNewerPutsPublish) {
  constexpr uint64_t kPuts = 1500;
  const Bytes v0{'v', '0'};
  auto value_for = [](uint64_t num) {
    Bytes v(4096);
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<uint8_t>(num * 131 + i);
    return v;
  };

  runtime::ThreadNetwork net(runtime::RuntimeConfig{});
  SystemConfig config;
  config.n = 5;
  config.f = 1;
  config.initial_value = v0;
  config.server_shards = 2;
  const ProcessId server_id = ProcessId::server(0);
  RegisterServer server(server_id, config, &net, v0);
  // The hot object and a batch-routing object owned by the other shard.
  uint32_t hot = 1;
  uint32_t other = 2;
  auto owner = [&](uint32_t object) {
    RegisterMessage probe;
    probe.type = MsgType::kQueryData;
    probe.object = object;
    net::Envelope env;
    env.payload = probe.encode();
    return server.shard_of(env);
  };
  while (owner(other) == owner(hot)) ++other;

  const ProcessId writer = ProcessId::writer(0);
  AckProbe acks(std::max(hot, other));
  net.add_process(server_id, &server);
  net.add_process(writer, &acks);
  ReplySlot direct, batched;
  net.add_process(ProcessId::reader(0), &direct);
  net.add_process(ProcessId::reader(1), &batched);
  net.start();

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> bad{0}, timeouts{0}, fresh_reads{0};
  auto check = [&](const Tag& tag, BytesView value) {
    const bool ok = tag == Tag::initial()
                        ? std::equal(value.begin(), value.end(), v0.begin(), v0.end())
                        : Bytes(value.begin(), value.end()) == value_for(tag.num);
    if (!ok) ++bad;
    if (tag != Tag::initial()) ++fresh_reads;
  };
  std::thread direct_reader([&] {
    uint64_t op = 0;
    for (int tail = 0; tail < 20;) {
      if (!writing.load(std::memory_order_acquire)) ++tail;
      RegisterMessage q;
      q.type = MsgType::kQueryData;
      q.op_id = ++op;
      q.object = hot;
      net.send(ProcessId::reader(0), server_id, q.encode());
      const auto resp = direct.wait(q.op_id);
      if (!resp) {
        ++timeouts;
        return;
      }
      check(resp->tag, resp->value);
    }
  });
  std::thread batch_reader([&] {
    uint64_t op = 0;
    for (int tail = 0; tail < 20;) {
      if (!writing.load(std::memory_order_acquire)) ++tail;
      RegisterMessage q;
      q.type = MsgType::kQueryDataBatch;
      q.op_id = ++op;
      q.object = other;  // routes the request away from the hot owner
      q.objects = {hot, hot};
      net.send(ProcessId::reader(1), server_id, q.encode());
      const auto resp = batched.wait(q.op_id);
      if (!resp || resp->history.size() != 2) {
        ++timeouts;
        return;
      }
      for (const TaggedValue& tv : resp->history) check(tv.tag, tv.value);
    }
  });

  for (uint64_t num = 1; num <= kPuts; ++num) {
    while (num - 1 - acks.acks.load(std::memory_order_acquire) >= 64) {
      std::this_thread::yield();
    }
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.op_id = num;
    m.object = hot;
    m.tag = Tag{num, writer};
    m.value = value_for(num);
    net.send(writer, server_id, m.encode());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (acks.acks.load(std::memory_order_acquire) < kPuts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  writing.store(false, std::memory_order_release);
  direct_reader.join();
  batch_reader.join();
  net.stop();

  EXPECT_EQ(acks.acks.load(), kPuts);
  EXPECT_EQ(timeouts.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(fresh_reads.load(), 0u);
  EXPECT_EQ(server.max_tag(hot), (Tag{kPuts, writer}));
}

TEST(ServerConfigTest, BuilderRejectsZeroShards) {
  auto result = SystemConfig::builder().n(5).f(1).server_shards(0).build();
  ASSERT_FALSE(result.ok());
}

TEST(ServerConfigTest, BuilderAcceptsShardCount) {
  auto result = SystemConfig::builder().n(5).f(1).server_shards(8).build_for_bsr();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().server_shards, 8u);
}

}  // namespace
}  // namespace bftreg::registers
