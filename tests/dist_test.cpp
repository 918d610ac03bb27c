// Distributed-service tests: the consistent-hash ring, per-shard cache
// stats in the wire protocol, Prometheus metrics rendering, and the
// headline invariant of the distributed tree search -- an N-node cluster
// run is byte-identical to a 1-node run -- plus cluster-wide solve dedup
// and graceful degradation when a peer is unreachable.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.hpp"
#include "net/listener.hpp"
#include "svc/client.hpp"
#include "svc/cluster.hpp"
#include "svc/hash_ring.hpp"
#include "svc/job.hpp"
#include "svc/scheduler.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace svtox {
namespace {

using svc::Json;

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRing, RejectsDegenerateMemberSets) {
  EXPECT_THROW(svc::HashRing({}), ContractError);
  EXPECT_THROW(svc::HashRing({"a:1", "a:1"}), ContractError);
  EXPECT_THROW(svc::HashRing({"a:1"}, /*vnodes=*/0), ContractError);
}

TEST(HashRing, DeterministicAndOrderIndependent) {
  const svc::HashRing forward({"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"});
  const svc::HashRing backward({"10.0.0.3:7000", "10.0.0.2:7000", "10.0.0.1:7000"});
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(forward.owner(key), backward.owner(key));
    EXPECT_EQ(forward.owner(key), forward.owner(key));
  }
}

TEST(HashRing, EveryMemberOwnsASliceOfTheKeySpace) {
  const std::vector<std::string> members = {"a:1", "b:2", "c:3", "d:4"};
  const svc::HashRing ring(members);
  std::set<std::string> seen;
  for (int i = 0; i < 4000; ++i) seen.insert(ring.owner(numbered("k", i)));
  EXPECT_EQ(seen.size(), members.size());
}

TEST(HashRing, SingleMemberOwnsEverything) {
  const svc::HashRing ring({"only:1"});
  EXPECT_EQ(ring.owner("anything"), "only:1");
  EXPECT_EQ(ring.owner(""), "only:1");
}

TEST(HashRing, OwnersAreDistinctStartWithOwnerAndClamp) {
  const std::vector<std::string> members = {"a:1", "b:2", "c:3", "d:4", "e:5"};
  const svc::HashRing ring(members);
  EXPECT_THROW(ring.owners("k", 0), ContractError);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::vector<std::string> owners = ring.owners(key, 3);
    ASSERT_EQ(owners.size(), 3u);
    EXPECT_EQ(owners[0], ring.owner(key));
    std::set<std::string> distinct(owners.begin(), owners.end());
    EXPECT_EQ(distinct.size(), owners.size()) << "duplicate successor for " << key;
    // Asking for more replicas than members clamps to the full set.
    EXPECT_EQ(ring.owners(key, 99).size(), members.size());
  }
}

TEST(HashRing, OwnersAgreeAcrossInsertionOrders) {
  const svc::HashRing forward({"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000",
                               "10.0.0.4:7000"});
  const svc::HashRing backward({"10.0.0.4:7000", "10.0.0.3:7000", "10.0.0.2:7000",
                                "10.0.0.1:7000"});
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(forward.owners(key, 3), backward.owners(key, 3));
  }
}

TEST(HashRing, RemovingOneMemberOnlyMovesItsOwnKeys) {
  const std::vector<std::string> members = {"a:1", "b:2", "c:3", "d:4", "e:5"};
  const std::string removed = "c:3";
  std::vector<std::string> rest;
  for (const std::string& m : members) {
    if (m != removed) rest.push_back(m);
  }
  const svc::HashRing before(members);
  const svc::HashRing after(rest);
  const int kKeys = 4000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = numbered("k", i);
    if (before.owner(key) == removed) {
      ++moved;  // must move; its owner left the ring
      EXPECT_NE(after.owner(key), removed);
    } else {
      // Consistent hashing's defining property: keys not owned by the
      // departed member keep their owner.
      EXPECT_EQ(after.owner(key), before.owner(key));
    }
  }
  // The removed member owned ~1/N of the space; allow 2x slack for hash
  // imbalance at 64 vnodes.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 2 * kKeys / static_cast<int>(members.size()));
}

// ---------------------------------------------------------------------------
// In-process daemons
// ---------------------------------------------------------------------------

std::string test_socket(const char* tag) {
  return "/tmp/svtox_dist_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

svc::Scheduler::Options node_options() {
  svc::Scheduler::Options options;
  options.workers = 2;
  return options;
}

struct Node {
  svc::Scheduler scheduler;
  svc::Server server;

  explicit Node(const char* tag)
      : scheduler(node_options()), server(scheduler, server_options(tag)) {
    server.start();
  }
  ~Node() { shutdown(); }

  void shutdown() {
    server.stop();
    scheduler.shutdown(/*drain=*/false);
  }

  std::string tcp() const { return "127.0.0.1:" + std::to_string(server.tcp_port()); }
  std::string address() const { return "tcp://" + tcp(); }

  static svc::ServerOptions server_options(const char* tag) {
    svc::ServerOptions options;
    options.socket_path = test_socket(tag);
    options.tcp_port = 0;
    return options;
  }
};

/// Two daemons joined into one cluster. Schedulers are shut down before the
/// Cluster objects die (coordinator jobs borrow the cluster pointer).
struct TwoNodes {
  Node a, b;
  std::optional<svc::Cluster> cluster_a, cluster_b;

  TwoNodes(const char* tag_a, const char* tag_b) : a(tag_a), b(tag_b) {
    const std::vector<std::string> members = {a.tcp(), b.tcp()};
    svc::ClusterOptions options;
    options.members = members;
    options.connect_attempts = 2;
    options.self = a.tcp();
    cluster_a.emplace(options);
    options.self = b.tcp();
    cluster_b.emplace(options);
    a.scheduler.set_cluster(&*cluster_a);
    b.scheduler.set_cluster(&*cluster_b);
  }
  ~TwoNodes() {
    a.shutdown();
    b.shutdown();
  }
};

svc::JobSpec coordinator_spec(int subtrees, std::uint64_t max_leaves,
                              const std::string& method = "heu2",
                              double penalty = 5.0) {
  svc::JobSpec spec;
  spec.circuit = "c432";
  spec.method = method;
  spec.penalty_percent = penalty;
  spec.time_limit_s = 100.0;
  spec.max_leaves = max_leaves;
  spec.subtrees = subtrees;
  return spec;
}

// ---------------------------------------------------------------------------
// Wire-visible cache and metrics shapes
// ---------------------------------------------------------------------------

TEST(DistStats, PerShardCacheCountersInStatsReply) {
  Node node("shardstats");
  svc::Client client(node.address());

  // One miss then one hit, somewhere in the shard array.
  svc::JobSpec spec;
  spec.circuit = "c432";
  spec.method = "heu1";
  client.result(client.submit(spec));
  client.result(client.submit(spec));

  const Json stats = client.stats();
  const Json* shards = stats.get("cache_shards");
  ASSERT_NE(shards, nullptr);
  const auto& array = shards->as_array();
  ASSERT_FALSE(array.empty());
  std::int64_t hits = 0, misses = 0, entries = 0;
  for (const Json& shard : array) {
    for (const char* key : {"hits", "disk_hits", "misses", "inflight_waits",
                            "evictions", "corrupt", "entries", "inflight"}) {
      ASSERT_NE(shard.get(key), nullptr) << "missing shard counter " << key;
    }
    hits += shard.get("hits")->as_int();
    misses += shard.get("misses")->as_int();
    entries += shard.get("entries")->as_int();
  }
  EXPECT_GE(hits, 1);
  EXPECT_GE(misses, 1);
  EXPECT_GE(entries, 1);
  // No cluster configured: the dist_cache section must be absent.
  EXPECT_EQ(stats.get("dist_cache"), nullptr);
}

TEST(DistStats, PrometheusMetricsParse) {
  Node node("prom");
  svc::Client client(node.address());
  svc::JobSpec spec;
  spec.circuit = "c432";
  spec.method = "heu1";
  client.result(client.submit(spec));

  Json request = Json::object();
  request.set("cmd", std::string("metrics"));
  const Json reply = client.request(request);
  ASSERT_TRUE(reply.get("ok")->as_bool(false));
  const std::string text = reply.get("metrics")->as_string();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Every line is a comment or `name[{labels}] value`; every metric name
  // that appears has HELP and TYPE headers.
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$)");
  std::set<std::string> helped, typed, sampled;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      helped.insert(line.substr(7, line.find(' ', 7) - 7));
    } else if (line.rfind("# TYPE ", 0) == 0) {
      typed.insert(line.substr(7, line.find(' ', 7) - 7));
    } else {
      EXPECT_TRUE(std::regex_match(line, sample)) << "bad metrics line: " << line;
      sampled.insert(line.substr(0, line.find_first_of("{ ")));
    }
  }
  for (const std::string& name : sampled) {
    EXPECT_TRUE(helped.count(name)) << "no HELP for " << name;
    EXPECT_TRUE(typed.count(name)) << "no TYPE for " << name;
  }
  EXPECT_TRUE(sampled.count("svtox_jobs_total"));
  EXPECT_TRUE(sampled.count("svtox_cache_ops_total"));
  EXPECT_TRUE(sampled.count("svtox_net_bytes_total"));
}

TEST(DistStats, CheckpointFetchRejectsPathTraversal) {
  Node node("traversal");
  svc::Client client(node.address());
  Json request = Json::object();
  request.set("cmd", std::string("checkpoint_fetch"));
  request.set("key", std::string("../../etc/passwd"));
  const Json reply = client.request(request);
  EXPECT_FALSE(reply.get("ok")->as_bool(true));
}

// ---------------------------------------------------------------------------
// Distributed tree search: determinism across node counts
// ---------------------------------------------------------------------------

TEST(DistSearch, TwoNodeRunIsByteIdenticalToSingleNode) {
  // Single-node reference: same coordinator spec, no cluster -- every
  // subtree drains on the local inline worker.
  svc::JobResult reference;
  {
    Node solo("solo_ref");
    svc::Client client(solo.address());
    reference = client.result(client.submit(coordinator_spec(4, 400)));
    ASSERT_EQ(reference.status, svc::JobStatus::kDone);
  }

  TwoNodes cluster("pair_a", "pair_b");
  svc::Client client(cluster.a.address());
  const svc::JobResult two = client.result(client.submit(coordinator_spec(4, 400)));
  ASSERT_EQ(two.status, svc::JobStatus::kDone);

  EXPECT_EQ(reference.solution_text, two.solution_text);
  EXPECT_EQ(reference.leakage_ua, two.leakage_ua);      // bitwise
  EXPECT_EQ(reference.delay_ps, two.delay_ps);          // bitwise
  EXPECT_EQ(reference.states_explored, two.states_explored);
}

TEST(DistSearch, StateMethodMatchesAcrossNodeCounts) {
  svc::JobResult reference;
  {
    Node solo("solo_state");
    svc::Client client(solo.address());
    reference =
        client.result(client.submit(coordinator_spec(4, 300, "state", 10.0)));
    ASSERT_EQ(reference.status, svc::JobStatus::kDone);
  }
  TwoNodes cluster("state_a", "state_b");
  svc::Client client(cluster.b.address());
  const svc::JobResult two =
      client.result(client.submit(coordinator_spec(4, 300, "state", 10.0)));
  ASSERT_EQ(two.status, svc::JobStatus::kDone);
  EXPECT_EQ(reference.solution_text, two.solution_text);
  EXPECT_EQ(reference.leakage_ua, two.leakage_ua);
  EXPECT_EQ(reference.states_explored, two.states_explored);
}

// c17: 5 inputs, 6 NAND gates -- small enough for exhaustive search.
const char* kC17Bench =
    "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n"
    "OUTPUT(G22)\nOUTPUT(G23)\n"
    "G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n"
    "G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n";

TEST(DistSearch, SubtreeExactFindsTheFlatExactOptimum) {
  Node node("exact");
  svc::Client client(node.address());

  svc::JobSpec flat;
  flat.bench_text = kC17Bench;
  flat.method = "exact";
  flat.time_limit_s = 60.0;
  svc::JobSpec split = flat;
  split.subtrees = 4;

  const svc::JobResult flat_result = client.result(client.submit(flat));
  const svc::JobResult split_result = client.result(client.submit(split));
  ASSERT_EQ(flat_result.status, svc::JobStatus::kDone);
  ASSERT_EQ(split_result.status, svc::JobStatus::kDone);
  // Exhaustive search from any partition of the state space reaches the
  // same optimum (the incumbent value is unique even if tied configs are
  // broken differently).
  EXPECT_NEAR(split_result.leakage_ua, flat_result.leakage_ua,
              1e-12 * flat_result.leakage_ua);
}

// ---------------------------------------------------------------------------
// Cluster-wide dedup and degradation
// ---------------------------------------------------------------------------

TEST(DistCache, IdenticalConcurrentJobsSolveOnceClusterWide) {
  TwoNodes cluster("dedup_a", "dedup_b");
  svc::JobSpec spec;
  spec.circuit = "c432";
  spec.method = "heu2";
  spec.penalty_percent = 9.0;
  spec.time_limit_s = 100.0;
  spec.max_leaves = 1200;  // long enough that the submits overlap

  svc::JobResult from_a, from_b;
  std::thread via_a([&] {
    svc::Client client(cluster.a.address());
    from_a = client.result(client.submit(spec));
  });
  std::thread via_b([&] {
    svc::Client client(cluster.b.address());
    from_b = client.result(client.submit(spec));
  });
  via_a.join();
  via_b.join();

  ASSERT_EQ(from_a.status, svc::JobStatus::kDone);
  ASSERT_EQ(from_b.status, svc::JobStatus::kDone);
  EXPECT_EQ(from_a.leakage_ua, from_b.leakage_ua);
  EXPECT_EQ(from_a.solution_text, from_b.solution_text);
  // Exactly one node actually solved; the other was served by the ring
  // (remote hit, or local inflight wait when both landed on the owner).
  const int solves = (from_a.cache_hit ? 0 : 1) + (from_b.cache_hit ? 0 : 1);
  EXPECT_EQ(solves, 1);
}

TEST(DistCache, UnreachablePeerDegradesToLocalSolves) {
  Node node("deadpeer");
  // Reserve a port nobody listens on (released immediately).
  int dead_port = 0;
  {
    net::Listener probe = net::Listener::tcp("127.0.0.1", 0);
    dead_port = probe.port();
  }
  svc::ClusterOptions options;
  options.members = {node.tcp(), "127.0.0.1:" + std::to_string(dead_port)};
  options.self = node.tcp();
  options.connect_attempts = 1;  // fail fast; degradation is the point
  svc::Cluster cluster(options);
  node.scheduler.set_cluster(&cluster);

  svc::Client client(node.address());
  // Enough distinct keys that some are ring-owned by the dead member.
  std::vector<std::uint64_t> jobs;
  for (int penalty = 1; penalty <= 12; ++penalty) {
    svc::JobSpec spec;
    spec.circuit = "c432";
    spec.method = "heu1";
    spec.penalty_percent = penalty;
    jobs.push_back(client.submit(spec));
  }
  for (std::uint64_t job : jobs) {
    EXPECT_EQ(client.result(job).status, svc::JobStatus::kDone);
  }

  // A coordinator job also succeeds: the dead peer's dispatcher retires
  // and the inline drain finishes every subtree.
  const svc::JobResult coordinated =
      client.result(client.submit(coordinator_spec(4, 200)));
  EXPECT_EQ(coordinated.status, svc::JobStatus::kDone);

  const Json stats = client.stats();
  const Json* dist = stats.get("dist_cache");
  ASSERT_NE(dist, nullptr);
  EXPECT_GE(dist->get("peer_failures")->as_int(), 1);

  node.shutdown();  // before `cluster` leaves scope
}

// ---------------------------------------------------------------------------
// Dynamic membership and the failure detector
// ---------------------------------------------------------------------------

TEST(DistCluster, ReloadSwapsRingAndBumpsEpoch) {
  svc::ClusterOptions options;
  options.members = {"10.0.0.1:7000", "10.0.0.2:7000"};
  options.self = "10.0.0.1:7000";
  svc::Cluster cluster(options);
  EXPECT_EQ(cluster.epoch(), 1u);
  EXPECT_EQ(cluster.size(), 2u);

  // Adding a member changes the set: new ring, new epoch.
  EXPECT_TRUE(cluster.reload({"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}));
  EXPECT_EQ(cluster.epoch(), 2u);
  EXPECT_EQ(cluster.size(), 3u);

  // Reloading the identical set (any order) is a no-op: no epoch churn.
  EXPECT_FALSE(cluster.reload({"10.0.0.3:7000", "10.0.0.1:7000", "10.0.0.2:7000"}));
  EXPECT_EQ(cluster.epoch(), 2u);

  // Dropping self is invalid; the ring is untouched.
  EXPECT_THROW(cluster.reload({"10.0.0.2:7000", "10.0.0.3:7000"}), ContractError);
  EXPECT_EQ(cluster.size(), 3u);
}

TEST(DistCluster, HeartbeatMarksKilledPeerDownThenFailsFast) {
  Node a("hb_a"), b("hb_b");
  svc::ClusterOptions options;
  options.members = {a.tcp(), b.tcp()};
  options.self = a.tcp();
  options.connect_attempts = 1;
  options.heartbeat_interval_s = 0.05;
  options.suspect_after_s = 0.15;
  options.down_after_s = 0.5;
  svc::Cluster cluster(options);
  cluster.start();

  // First successful ping: the peer reports up.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster.health(b.tcp()) != svc::PeerHealth::kUp &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(cluster.health(b.tcp()), svc::PeerHealth::kUp);

  // Kill the peer; the detector must degrade it to down on its own.
  b.shutdown();
  while (cluster.health(b.tcp()) != svc::PeerHealth::kDown &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(cluster.health(b.tcp()), svc::PeerHealth::kDown);

  // Requests to a down peer fail fast instead of burning a connect timeout.
  Json ping = Json::object();
  ping.set("cmd", "ping");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(cluster.request(b.tcp(), ping), Error);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 1.0);

  cluster.stop();
  a.shutdown();
}

// A crashed inflight owner must never wedge a caller: the first
// fetch_or_lock takes the inflight lock and then "dies" (never publishes,
// never abandons); the second passes wait_s and must come back a duplicate
// solver within that bound instead of parking forever.
TEST(DistCache, CrashedOwnerFetchOrLockDegradesWithinBoundedWait) {
  Node node("boundedwait");
  svc::Client owner(node.address());
  svc::Client caller(node.address());

  Json lock = Json::object();
  lock.set("cmd", "cache_fetch_or_lock");
  lock.set("key", "crashed_owner_key");
  const Json granted = owner.request(lock);
  ASSERT_TRUE(granted.get("ok")->as_bool(false));
  ASSERT_FALSE(granted.get("hit")->as_bool(true));  // miss -> lock granted

  Json bounded = lock;
  bounded.set("wait_s", 0.3);
  const auto t0 = std::chrono::steady_clock::now();
  const Json reply = caller.request(bounded);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(reply.get("ok")->as_bool(false));
  EXPECT_FALSE(reply.get("hit")->as_bool(true));  // degraded to duplicate solve
  EXPECT_GE(elapsed, 0.2);  // it did wait for the owner first
  EXPECT_LT(elapsed, 5.0);  // ... but came back near the bound, not never
}

// Regression: an aborted handshake (connection reset between SYN and the
// first frame) must not tear down the accept loop -- inject the reset with
// a fail point, then prove the server still answers.
TEST(DistNet, InjectedAcceptResetKeepsListenerServing) {
  if (!FailPoints::compiled_in()) {
    GTEST_SKIP() << "fail points compiled out (SVTOX_FAILPOINTS=0)";
  }
  Node node("acceptreset");
  FailPoints::instance().configure("net_accept=reset-after*2");
  // Two doomed handshakes: the server accepts and immediately resets each.
  for (int i = 0; i < 2; ++i) {
    net::Conn doomed(net::connect_tcp("127.0.0.1", node.server.tcp_port(), 2.0));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FailPoints::instance().triggers("net_accept") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(FailPoints::instance().triggers("net_accept"), 2u);
  FailPoints::instance().clear();

  // The listener survived: a normal client round-trips fine.
  svc::Client client(node.address());
  const Json stats = client.stats();
  ASSERT_NE(stats.get("jobs"), nullptr);
}

}  // namespace
}  // namespace svtox
