// service-mix: a service::Server on a Unix socket inside this process,
// driven by a closed loop of two keep-alive ServiceClient connections
// (fewer than the host's four cores).  Each client walks its own fixed,
// seeded list built before timing starts: per round, 500 reads against the
// resident designs (oracle_query, oracle_batch of 64 patterns, sta) and one
// session with the steps of `gkll_sweep --service` — upload a resident
// design, lock it gk with a fresh seed, attack it sat.  Sessions use only
// the smallest design.
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <random>
#include <thread>

#include "attack/oracle.h"
#include "benchgen/synthetic_bench.h"
#include "checks.h"
#include "core/gk_encryptor.h"
#include "netlist/netlist_ops.h"
#include "refeval.h"
#include "service/client.h"
#include "service/proto.h"
#include "service/server.h"
#include "service/service.h"
#include "timing/sta.h"
#include "util/json.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace gkll;

const char* const kResidents[] = {"s1238", "s5378", "s9234"};
const char* const kSessionDesign = "s1238";
constexpr int kClients = 2;
// Reads are drawn uniformly from the read requests, so these counts set the
// mix: 20 % oracle_query, 70 % oracle_batch, 10 % sta.  Batches dominate
// so that host-dependent thread wake-up latency, which dominates a single
// query's round trip, is a small share of the read time.
constexpr int kReadsPerRound = 500;
constexpr int kQueriesPerDesign = 4;
constexpr int kBatchesPerDesign = 14;
const Ps kStaPeriods[] = {ns(10), ns(5)};
constexpr int kBatchPatterns = 64;
// Nominal round cost on the reference host (both clients in parallel).
constexpr double kNominalRoundSeconds = 0.15;

enum ReadKind { kQuery = 0, kBatch = 1, kSta = 2 };

/// One pre-serialised read request and the response bytes it must get.
struct Read {
  ReadKind kind = kQuery;
  std::string payload;
  std::string expected;
};

struct Design {
  std::string name;
  std::string handle;
  Netlist comb;
};

std::string uploadPayload(const std::string& name) {
  service::JsonWriter w;
  w.i64("id", 1).str("verb", "upload").str("generate", name);
  return w.finish();
}

std::string lockPayload(const std::string& handle, std::int64_t seed) {
  service::JsonWriter w;
  w.i64("id", 2).str("verb", "lock").str("handle", handle).str("scheme", "gk")
      .i64("num_gks", 4).i64("seed", seed);
  return w.finish();
}

std::string attackPayload(const std::string& lockedHandle) {
  service::JsonWriter w;
  w.i64("id", 3).str("verb", "attack").str("handle", lockedHandle)
      .str("mode", "sat").i64("conflict_budget", 1'000'000);
  return w.finish();
}

std::string randomBits(std::size_t n, std::mt19937_64& rng) {
  std::string s(n, '0');
  for (char& c : s) c = rng() & 1u ? '1' : '0';
  return s;
}

std::vector<bool> toBits(const std::string& s) {
  std::vector<bool> v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) v[i] = s[i] == '1';
  return v;
}

/// The read requests of every resident design, with the outputs the
/// reference evaluator and a direct Sta::run give for them.
struct Reference {
  std::vector<Design> designs;
  std::vector<Read> reads;
  std::vector<std::string> wantOutputs;  ///< per read: expected "outputs" / sta line
};

std::string staLine(const Netlist& nl, Ps period) {
  StaConfig cfg;
  cfg.clockPeriod = period;
  cfg.inputArrival = 0;
  Sta sta(nl, cfg);
  const StaResult r = sta.run();
  return std::to_string(r.worstSetupSlack) + "/" +
         std::to_string(r.worstHoldSlack) + "/" +
         std::to_string(r.criticalDelay);
}

Reference buildReference(std::uint64_t seed) {
  Reference ref;
  std::mt19937_64 rng(seed);
  std::int64_t id = 100;
  for (const char* name : kResidents) {
    const Netlist nl = generateByName(name);
    Design d;
    d.name = name;
    d.handle = service::hashHandle(nl.contentHash());
    d.comb = extractCombinational(nl).netlist;
    const RefEval eval(d.comb);
    const std::size_t width = d.comb.inputs().size();
    for (int q = 0; q < kQueriesPerDesign; ++q) {
      const std::string bits = randomBits(width, rng);
      service::JsonWriter w;
      w.i64("id", id++).str("verb", "oracle_query").str("handle", d.handle)
          .str("inputs", bits);
      ref.reads.push_back({kQuery, w.finish(), {}});
      ref.wantOutputs.push_back(bitString(eval.eval(toBits(bits))));
    }
    for (int b = 0; b < kBatchesPerDesign; ++b) {
      std::string arr = "[", want;
      for (int p = 0; p < kBatchPatterns; ++p) {
        const std::string bits = randomBits(width, rng);
        if (p) {
          arr += ',';
          want += ',';
        }
        arr += '"';
        arr += bits;
        arr += '"';
        want += bitString(eval.eval(toBits(bits)));
      }
      service::JsonWriter w;
      w.i64("id", id++).str("verb", "oracle_batch").str("handle", d.handle)
          .raw("queries", arr + "]");
      ref.reads.push_back({kBatch, w.finish(), {}});
      ref.wantOutputs.push_back(want);
    }
    for (Ps period : kStaPeriods) {
      service::JsonWriter w;
      w.i64("id", id++).str("verb", "sta").str("handle", d.handle)
          .i64("clock_period_ps", period);
      ref.reads.push_back({kSta, w.finish(), {}});
      ref.wantOutputs.push_back(staLine(nl, period));
    }
    ref.designs.push_back(std::move(d));
  }
  return ref;
}

/// Checks one read response against the reference; "" when it matches.
std::string checkRead(const Read& r, const std::string& want,
                      const std::string& response) {
  util::JsonValue v;
  if (!util::parseJson(response, v) || !v.boolOr("ok", false))
    return "read failed: " + response.substr(0, 200);
  if (r.kind == kSta) {
    const std::string got =
        std::to_string(static_cast<std::int64_t>(v.numberOr("worst_setup_slack_ps", 0))) +
        "/" + std::to_string(static_cast<std::int64_t>(v.numberOr("worst_hold_slack_ps", 0))) +
        "/" + std::to_string(static_cast<std::int64_t>(v.numberOr("critical_delay_ps", 0)));
    return got == want ? "" : "sta " + got + " != direct Sta::run " + want;
  }
  const util::JsonValue* outs = v.find("outputs");
  if (!outs) return "oracle response has no outputs";
  std::string got;
  if (r.kind == kQuery) {
    got = outs->string;
  } else {
    for (std::size_t i = 0; i < outs->array.size(); ++i)
      got += (i ? "," : "") + outs->array[i].string;
  }
  return checkOracleBits(got, want);
}

/// What one client saw in the timed phase.
struct ClientLog {
  std::vector<double> readMs;
  std::vector<double> sessionMs;
  std::vector<std::int64_t> sessionSeeds;
  std::vector<std::string> lockResponses;
  std::vector<std::string> attackResponses;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< wrong answers (not failures)
};

struct Mix {
  service::Service svc;
  std::unique_ptr<service::Server> server;
  std::thread serverThread;
  std::string sock;
  std::vector<service::ServiceClient> clients;

  ~Mix() {
    for (service::ServiceClient& c : clients) c.close();
    if (server) {
      server->stop();
      if (serverThread.joinable()) serverThread.join();
      server->drain();
    }
  }
};

/// Start the server, connect the clients, upload the residents and send
/// every read once: that warms the service's caches and validates each
/// read's response against the reference, whose bytes then become the
/// expected response of every repeat (the service answers a request with
/// the same bytes every time).
std::unique_ptr<Mix> startMix(Reference& ref, int setupIndex, Result& res) {
  auto mix = std::make_unique<Mix>();
  mix->sock = outDir() + "/svc-" + std::to_string(::getpid()) + "-" +
              std::to_string(setupIndex) + ".sock";
  service::ServerOptions so;
  so.unixPath = mix->sock;
  mix->server = std::make_unique<service::Server>(mix->svc, so);
  if (!mix->server->start()) {
    res.fail("server start: " + mix->server->error());
    return mix;
  }
  Mix* m = mix.get();
  mix->serverThread = std::thread([m] { m->server->run(); });
  mix->clients.resize(kClients);
  for (service::ServiceClient& c : mix->clients)
    if (!c.connectUnix(mix->sock)) res.fail("connect: " + c.error());
  service::ServiceClient& c0 = mix->clients[0];
  std::string resp;
  for (const Design& d : ref.designs) {
    if (!c0.request(uploadPayload(d.name), resp) ||
        resp.find("\"handle\":\"" + d.handle + "\"") == std::string::npos)
      res.fail("upload of " + d.name + ": " + resp.substr(0, 200));
  }
  for (std::size_t i = 0; i < ref.reads.size(); ++i) {
    Read& r = ref.reads[i];
    if (!c0.request(r.payload, resp)) {
      res.fail("warm-up read: " + c0.error());
      continue;
    }
    const std::string err = checkRead(r, ref.wantOutputs[i], resp);
    if (!err.empty()) res.fail(err);
    r.expected = resp;
  }
  return mix;
}

/// A client's list: per round, kReadsPerRound read indices (into
/// Reference::reads) and one session (-1) at a seeded position.
std::vector<std::vector<int>> buildLists(std::size_t numReads, int rounds,
                                         std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<std::vector<int>> lists(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int r = 0; r < rounds; ++r) {
      std::vector<int> round;
      for (int i = 0; i < kReadsPerRound; ++i)
        round.push_back(static_cast<int>(rng() % numReads));
      round.insert(round.begin() + static_cast<long>(rng() % (round.size() + 1)), -1);
      lists[static_cast<std::size_t>(c)].insert(
          lists[static_cast<std::size_t>(c)].end(), round.begin(), round.end());
    }
  return lists;
}

std::int64_t sessionSeed(std::uint64_t seed, int client, std::size_t n) {
  return static_cast<std::int64_t>(
      (seed * 1000003ULL + static_cast<std::uint64_t>(client) * 7919ULL + n) %
      1'000'000'007ULL) + 1000;
}

void runClient(service::ServiceClient& cl, const std::vector<Read>& reads,
               const std::vector<int>& list, std::size_t begin, std::size_t end,
               int client, std::uint64_t seed, Tracer* tr, std::int64_t opBase,
               ClientLog& log) {
  std::string resp;
  const std::string upload = uploadPayload(kSessionDesign);
  for (std::size_t i = begin; i < end; ++i) {
    const std::int64_t op = opBase + static_cast<std::int64_t>(i);
    if (list[i] >= 0) {
      const Read& r = reads[static_cast<std::size_t>(list[i])];
      Span s(tr, r.kind == kQuery ? "oracle_query"
                 : r.kind == kBatch ? "oracle_batch" : "sta", op);
      const bool ok = cl.request(r.payload, resp);
      log.readMs.push_back(s.elapsedMs());
      ++log.requests;
      if (!ok) {  // the connection is gone; the rest is not attempted
        ++log.failed;
        std::fprintf(stderr, "service-mix: transport: %s\n", cl.error().c_str());
        return;
      }
      if (resp != r.expected) {
        if (resp.find("\"ok\":false") != std::string::npos)
          ++log.failed;
        else
          log.problems.push_back("read response differs from its checked bytes");
      }
      continue;
    }
    // A session whose step fails counts its three requests as failed.
    const std::int64_t sseed = sessionSeed(seed, client, log.sessionMs.size());
    Span session(tr, "session", op);
    std::string lockResp, attackResp;
    util::JsonValue v;
    bool ok = false;
    {
      Span s(tr, "upload", op);
      ok = cl.request(upload, resp) && util::parseJson(resp, v) &&
           v.boolOr("ok", false);
    }
    if (ok) {
      Span s(tr, "lock", op);
      ok = cl.request(lockPayload(v.stringOr("handle", ""), sseed), lockResp) &&
           util::parseJson(lockResp, v) && v.boolOr("ok", false);
    }
    if (ok) {
      Span s(tr, "attack", op);
      ok = cl.request(attackPayload(v.stringOr("locked_handle", "")),
                      attackResp) &&
           attackResp.find("\"ok\":true") != std::string::npos;
    }
    log.sessionMs.push_back(session.elapsedMs());
    log.requests += 3;
    if (!ok) {
      log.failed += 3;
      std::fprintf(stderr, "service-mix: session seed %lld failed: %s %s\n",
                   static_cast<long long>(sseed), lockResp.substr(0, 120).c_str(),
                   attackResp.substr(0, 120).c_str());
      continue;
    }
    log.sessionSeeds.push_back(sseed);
    log.lockResponses.push_back(std::move(lockResp));
    log.attackResponses.push_back(std::move(attackResp));
  }
}

/// Every lock equals a direct GkEncryptor::encrypt with the same
/// parameters, and every GK attack dies at the first miter query.
void checkSessions(const std::vector<ClientLog>& logs, Result& res) {
  const GkEncryptor enc(generateByName(kSessionDesign));
  for (const ClientLog& log : logs) {
    res.failed += log.failed;
    for (const std::string& p : log.problems) res.fail(p);
    for (std::size_t i = 0; i < log.sessionSeeds.size(); ++i) {
      EncryptOptions eo;
      eo.numGks = 4;
      eo.seed = static_cast<std::uint64_t>(log.sessionSeeds[i]);
      const GkFlowResult direct = enc.encrypt(eo);
      std::string key;
      for (int b : direct.design.correctKey) key += b ? '1' : '0';
      util::JsonValue lock, attack;
      util::parseJson(log.lockResponses[i], lock);
      util::parseJson(log.attackResponses[i], attack);
      if (lock.stringOr("correct_key", "") != key ||
          static_cast<std::size_t>(lock.numberOr("num_gks", -1)) !=
              direct.insertions.size() ||
          lock.boolOr("verify_ok", false) != direct.verify.ok() ||
          !direct.verify.ok())
        res.fail("lock seed " + std::to_string(log.sessionSeeds[i]) +
                 " differs from a direct encrypt: " + log.lockResponses[i]);
      SatAttackResult a;
      a.dips = static_cast<int>(attack.numberOr("dips", -1));
      a.unsatAtFirstIteration = attack.boolOr("unsat_at_first_iteration", false);
      a.decrypted = attack.boolOr("decrypted", true);
      const std::string err = checkGkRow(a);
      if (!err.empty())
        res.fail("session attack seed " + std::to_string(log.sessionSeeds[i]) +
                 ": " + err);
    }
  }
}

/// Runs rounds [r0, r1) of both clients' lists concurrently; returns the
/// phase's wall time.
double runRounds(Mix& mix, const Reference& ref,
                 const std::vector<std::vector<int>>& lists, int r0, int r1,
                 std::uint64_t seed, Tracer* tr, std::vector<ClientLog>& logs) {
  const std::size_t perRound = kReadsPerRound + 1;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      const auto& list = lists[static_cast<std::size_t>(c)];
      runClient(mix.clients[static_cast<std::size_t>(c)], ref.reads, list,
                static_cast<std::size_t>(r0) * perRound,
                static_cast<std::size_t>(r1) * perRound, c, seed, tr,
                static_cast<std::int64_t>(c) << 32,
                logs[static_cast<std::size_t>(c)]);
    });
  for (std::thread& t : threads) t.join();
  return msSince(t0);
}

}  // namespace

Result runServiceMix(const Options& o, Tracer* tr) {
  Result res;
  double setupS = 0;
  int setups = 0;
  struct SetUp {
    Reference ref;
    std::unique_ptr<Mix> mix;
  };
  SetUp st = repeatedSetUp(
      [&] {
        SetUp s{buildReference(o.seed), nullptr};
        s.mix = startMix(s.ref, setups++, res);
        return s;
      },
      setupS);
  if (!res.correct) return res;
  const Reference& ref = st.ref;
  Mix* mix = st.mix.get();

  const int rounds = passesFor(o.seconds, kNominalRoundSeconds, 16);
  const std::vector<std::vector<int>> lists =
      buildLists(ref.reads.size(), rounds, o.seed);
  std::vector<ClientLog> logs(kClients);
  double timedMs = 0;
  std::vector<double> traced, untraced;
  if (tr) {
    // Eight segments, alternately with and without spans.
    const int seg = rounds / 8;
    for (int s = 0; s < 8; ++s) {
      Tracer* t = s % 2 ? tr : nullptr;
      const double ms = runRounds(*mix, ref, lists, s * seg,
                                  s == 7 ? rounds : (s + 1) * seg, o.seed, t, logs);
      (t ? traced : untraced).push_back(ms);
    }
  } else {
    timedMs = runRounds(*mix, ref, lists, 0, rounds, o.seed, nullptr, logs);
  }
  for (const ClientLog& l : logs) res.attempted += l.requests;
  checkSessions(logs, res);

  if (tr) {
    res.put("obs.trace_overhead_ms", median(traced) - median(untraced), "ms");
    return res;
  }
  std::vector<double> reads, sessions;
  for (const ClientLog& l : logs) {
    reads.insert(reads.end(), l.readMs.begin(), l.readMs.end());
    sessions.insert(sessions.end(), l.sessionMs.begin(), l.sessionMs.end());
  }
  std::fprintf(stderr, "service-mix: %zu reads p50 %.4f p99 %.4f ms; %zu sessions p50 %.3f ms\n",
               reads.size(), median(reads), percentile(reads, 0.99),
               sessions.size(), median(sessions));
  res.put("setup_s", setupS, "s");
  res.put("ops_per_s", 1000.0 * static_cast<double>(res.attempted) / timedMs, "1/s");
  res.put("heavy_ms", median(sessions), "ms");
  res.put("light_ms", median(reads), "ms");
  res.put("peak_rss_mb", peakRssMb(), "MB");
  return res;
}

void layersService(const Options& o, Tracer& tr, Result& out) {
  Layers L(&tr);
  Reference ref = buildReference(o.seed);

  // Oracle layer: CombOracle on the resident designs' combinational cores.
  std::vector<double> queryUs, batchUs;
  std::mt19937_64 rng(o.seed);
  for (const Design& d : ref.designs) {
    const CombOracle oracle(d.comb);
    const std::size_t width = d.comb.inputs().size();
    for (int rep = 0; rep < 64; ++rep) {
      std::vector<Logic> in(width);
      for (Logic& l : in) l = rng() & 1u ? Logic::T : Logic::F;
      Span s(&tr, "oracle.query", rep);
      oracle.query(in);
      queryUs.push_back(s.elapsedMs() * 1000.0);
    }
    for (int rep = 0; rep < 16; ++rep) {
      std::vector<std::vector<Logic>> batch(kBatchPatterns,
                                            std::vector<Logic>(width));
      for (auto& p : batch)
        for (Logic& l : p) l = rng() & 1u ? Logic::T : Logic::F;
      Span s(&tr, "oracle.batch64", rep);
      oracle.queryBatch(batch);
      batchUs.push_back(s.elapsedMs() * 1000.0);
    }
  }

  // Service layer in-process: the same request bytes through
  // Service::handle, then through the socket for the transport share.
  Result scratch;
  std::unique_ptr<Mix> mix = startMix(ref, 9, scratch);
  if (!scratch.correct) out.fail("service probe set-up failed");
  std::vector<double> handleRead, handleLock, handleAttack, rtt;
  for (int rep = 0; rep < 3; ++rep)
    for (const Read& r : ref.reads) {
      Span s(&tr, "service.handle.read", rep);
      mix->svc.handle(r.payload);
      handleRead.push_back(s.elapsedMs() * 1000.0);
    }
  std::string resp;
  for (int rep = 0; rep < 3; ++rep)
    for (const Read& r : ref.reads) {
      Span s(&tr, "service.roundtrip.read", rep);
      mix->clients[0].request(r.payload, resp);
      rtt.push_back(s.elapsedMs() * 1000.0);
    }
  const std::string& handle = ref.designs[0].handle;
  for (int k = 0; k < 8; ++k) {
    const std::int64_t seed = sessionSeed(o.seed, 7, static_cast<std::size_t>(k));
    std::string lockResp;
    {
      Span s(&tr, "service.handle.lock", k);
      lockResp = mix->svc.handle(lockPayload(handle, seed));
      handleLock.push_back(s.elapsedMs() * 1000.0);
    }
    util::JsonValue v;
    util::parseJson(lockResp, v);
    Span s(&tr, "service.handle.attack", k);
    const std::string a = mix->svc.handle(attackPayload(v.stringOr("locked_handle", "")));
    handleAttack.push_back(s.elapsedMs() * 1000.0);
    if (a.find("\"unsat_at_first_iteration\":true") == std::string::npos)
      out.fail("service probe attack: " + a.substr(0, 200));
  }
  mix->clients[0].request("{\"id\":9,\"verb\":\"stats\"}", resp);
  util::JsonValue stats;
  util::parseJson(resp, stats);
  const util::JsonValue* store = stats.find("store");

  out.put("oracle.query_us", median(queryUs), "us");
  out.put("oracle.batch64_us", median(batchUs), "us");
  out.put("service.handle_us.read", median(handleRead), "us");
  out.put("service.handle_us.lock", median(handleLock), "us");
  out.put("service.handle_us.attack", median(handleAttack), "us");
  out.put("service.transport_us", median(rtt) - median(handleRead), "us");
  out.put("service.store_entries", store ? store->numberOr("entries", 0) : 0, "count");
  out.put("service.store_bytes", store ? store->numberOr("bytes", 0) : 0, "bytes");
  out.put("service.lock_cache_hits", stats.numberOr("lock_cache_hits", 0), "count");
}

}  // namespace pb
