/**
 * @file
 * Sweep-service tests: wire-protocol round trips, concurrent clients
 * sharing one pool (dedup + byte-identity of streamed records),
 * disconnect/resubmit idempotence, daemon restart recovering the pool
 * from the jobs directory, elastic worker scale-up and idle
 * retirement, dead-worker respawn, and salt/protocol/version-skew
 * refusal. Workers run as in-process threads via a test
 * WorkerLauncher — the production fork/exec launcher is exercised by
 * the CLI smoke job in CI.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/version.hh"
#include "exp/exp.hh"
#include "svc/client.hh"
#include "svc/net.hh"
#include "svc/proto.hh"
#include "svc/service.hh"
#include "workloads/workload.hh"

#include "test_util.hh"

using namespace eve;
using namespace eve::exp;
using eve::test::freshDir;
using namespace eve::svc;

namespace
{

/**
 * Short socket paths: sun_path caps out around 100 characters, too
 * few for the scratch root. The process id keeps concurrent suite
 * runs apart, as it does for freshDir().
 */
std::string
shortSocket(const std::string& name)
{
    const std::string path = "/tmp/eve-svc-" +
                             std::to_string(::getpid()) + "-" + name +
                             ".sock";
    std::filesystem::remove(path);
    return path;
}

/** IO-system jobs over @p workloads, one per workload. */
std::vector<Job>
ioJobs(const std::vector<std::string>& workloads)
{
    SweepSpec spec;
    SystemConfig io;
    io.kind = SystemKind::IO;
    spec.system(io);
    spec.workloads(workloads, /*small=*/true);
    return spec.jobs();
}

/** Pool tunables tuned for test speed. */
DistOptions
fastDist(const std::string& dir)
{
    DistOptions d;
    d.jobs_dir = dir;
    d.lease_timeout_s = 1.0;
    d.heartbeat_s = 0.05;
    d.poll_s = 0.01;
    d.join_timeout_s = 10;
    return d;
}

/** Service options around @p dist with quick ticks. */
ServiceOptions
fastService(const std::string& socket, const DistOptions& dist)
{
    ServiceOptions so;
    so.socket_path = socket;
    so.dist = dist;
    so.tick_s = 0.02;
    so.quiet = true;
    return so;
}

/** Spawn bookkeeping shared between a test and its launcher. */
struct SpawnLog
{
    std::atomic<unsigned> spawned{0};
    std::atomic<bool> gate{true}; ///< workers wait until open
};

/**
 * Test launcher: each worker is a std::thread running the ordinary
 * claim loop. stop() is a no-op — the service's teardown stop marker
 * (and idle_exit_s for surge workers) ends the loop.
 */
WorkerLauncher
threadLauncher(std::shared_ptr<SpawnLog> log)
{
    return [log](const DistOptions& d) -> WorkerHandle {
        ++log->spawned;
        auto done = std::make_shared<std::atomic<bool>>(false);
        auto th = std::make_shared<std::thread>([log, d, done] {
            while (!log->gate.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            runDistWorker(d);
            done->store(true);
        });
        WorkerHandle h;
        h.running = [done] { return !done->load(); };
        h.stop = [] {};
        h.join = [th] {
            if (th->joinable())
                th->join();
        };
        return h;
    };
}

/** A launcher whose workers are dead on arrival (never claim). */
WorkerLauncher
dudLauncher(std::shared_ptr<SpawnLog> log)
{
    return [log](const DistOptions&) -> WorkerHandle {
        ++log->spawned;
        WorkerHandle h;
        h.running = [] { return false; };
        h.stop = [] {};
        h.join = [] {};
        return h;
    };
}

/** Run service.run() on a thread; reports the return value. */
struct ServiceRun
{
    explicit ServiceRun(SweepService& svc)
        : thread([this, &svc] { ok.store(svc.run(&error)); })
    {
    }

    ~ServiceRun()
    {
        if (thread.joinable())
            thread.join();
    }

    void join() { thread.join(); }

    std::atomic<bool> ok{false};
    std::string error;
    std::thread thread;
};

/** Poll @p pred every few ms until true or @p timeout_s. */
bool
waitUntil(const std::function<bool()>& pred, double timeout_s = 10)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
}

/** Wait until the daemon's socket answers hello. */
bool
waitForDaemon(const std::string& socket)
{
    return waitUntil([&] { return helloServer(socket, 0.2).ok; }, 10);
}

/** The submit request submitSweep would send for @p jobs. */
SubmitRequest
requestFor(const std::vector<Job>& jobs)
{
    SubmitRequest req;
    req.sweep = "test";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        DistJob dj;
        dj.index = i;
        dj.key = jobKey(jobs[i]);
        dj.label = jobs[i].label;
        dj.workload = jobs[i].workload;
        dj.scale = jobs[i].scale;
        dj.config = configCanonical(jobs[i].config);
        dj.remote = true;
        req.jobs.push_back(std::move(dj));
    }
    return req;
}

/** One-shot raw exchange: send @p line, return the first reply. */
std::string
rawExchange(const std::string& socket, const std::string& line)
{
    Conn conn = connectTo(socket, 5);
    EXPECT_TRUE(conn.valid());
    EXPECT_TRUE(conn.writeLine(line));
    std::string reply;
    EXPECT_TRUE(conn.readLine(reply, 10));
    return reply;
}

} // namespace

// ---------------------------------------------------------------- proto

TEST(SvcProto, SubmitRoundTrip)
{
    const std::vector<Job> jobs = ioJobs({"vvadd", "fir"});
    const SubmitRequest req = requestFor(jobs);
    const std::string line = makeSubmit(req);

    JsonValue msg;
    std::string verb;
    ASSERT_TRUE(parseMessage(line, msg, verb));
    EXPECT_EQ(verb, "submit");

    SubmitRequest back;
    ASSERT_TRUE(parseSubmit(msg, back));
    EXPECT_EQ(back.sweep, "test");
    EXPECT_EQ(back.protocol, kSvcProtocolVersion);
    EXPECT_EQ(back.salt, kSimulatorSalt);
    EXPECT_EQ(back.version, kEveVersion);
    ASSERT_EQ(back.jobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(back.jobs[i].index, req.jobs[i].index);
        EXPECT_EQ(back.jobs[i].key, req.jobs[i].key);
        EXPECT_EQ(back.jobs[i].label, req.jobs[i].label);
        EXPECT_EQ(back.jobs[i].workload, req.jobs[i].workload);
        EXPECT_EQ(back.jobs[i].scale, req.jobs[i].scale);
        EXPECT_EQ(back.jobs[i].config, req.jobs[i].config);
        EXPECT_TRUE(back.jobs[i].remote);
    }
}

TEST(SvcProto, SubmitCarriesSamplingOnlyWhenSet)
{
    std::vector<Job> jobs = ioJobs({"vvadd"});
    SubmitRequest req = requestFor(jobs);
    // Exact jobs serialize without a sampling member at all, so the
    // submit line is byte-compatible with pre-sampling daemons.
    EXPECT_EQ(makeSubmit(req).find("\"sampling\""),
              std::string::npos);

    req.jobs[0].sampling = "interval=1000;warmup=200;stride=8";
    const std::string line = makeSubmit(req);
    EXPECT_NE(line.find("\"sampling\""), std::string::npos);

    JsonValue msg;
    std::string verb;
    ASSERT_TRUE(parseMessage(line, msg, verb));
    SubmitRequest back;
    ASSERT_TRUE(parseSubmit(msg, back));
    ASSERT_EQ(back.jobs.size(), 1u);
    EXPECT_EQ(back.jobs[0].sampling,
              "interval=1000;warmup=200;stride=8");
}

TEST(SvcService, WorkerArgsForwardExecutionOptions)
{
    // Regression: the daemon's spawned workers used to drop
    // execution options on the floor — DistOptions carried them, the
    // exec argv did not.
    exp::DistOptions d;
    d.jobs_dir = "/pool";
    d.lease_timeout_s = 60;
    d.heartbeat_s = 2;
    d.poll_s = 0.25;
    d.join_timeout_s = 600;

    auto has_flag = [](const std::vector<std::string>& args,
                       const std::string& flag,
                       const std::string& value) {
        for (std::size_t i = 0; i + 1 < args.size(); ++i)
            if (args[i] == flag && args[i + 1] == value)
                return true;
        return false;
    };

    // Defaults: no checkpoint flag.
    std::vector<std::string> args = workerArgs(d);
    ASSERT_FALSE(args.empty());
    EXPECT_EQ(args[1], "--worker");
    EXPECT_TRUE(has_flag(args, "--jobs-dir", "/pool"));
    for (const auto& a : args)
        EXPECT_NE(a, "--checkpoint-dir");

    d.checkpoint_dir = "/ckpt";
    d.worker_id = "floor-0";
    d.idle_exit_s = 5;
    args = workerArgs(d);
    EXPECT_TRUE(has_flag(args, "--checkpoint-dir", "/ckpt"));
    EXPECT_TRUE(has_flag(args, "--worker-id", "floor-0"));
    EXPECT_TRUE(has_flag(args, "--idle-exit", "5.000000"));
}

TEST(SvcProto, ParseMessageResetsReusedValue)
{
    // Regression: parseObject appends, so parsing a second message
    // into the same JsonValue used to leave the first message's
    // members shadowing the new ones — a streaming client would read
    // the stale verb and silently drop every result.
    JsonValue msg;
    std::string verb;
    ASSERT_TRUE(parseMessage(
        "{\"verb\":\"result\",\"index\":3,\"record\":{\"a\":1}}", msg,
        verb));
    EXPECT_EQ(verb, "result");
    EXPECT_EQ(jsonNumberField(msg, "index"), 3);

    ASSERT_TRUE(parseMessage(
        "{\"verb\":\"sweep-done\",\"ok\":2,\"total\":2}", msg, verb));
    EXPECT_EQ(verb, "sweep-done");
    EXPECT_EQ(jsonNumberField(msg, "ok"), 2);
    EXPECT_EQ(jsonNumberField(msg, "index", -1), -1);
}

TEST(SvcProto, ExtractRecordPreservesBytes)
{
    const std::string record =
        "{\"label\":\"a/b\",\"stats\":{\"x\":1.5},\"note\":\"}\"}";
    const std::string line = makeResult(7, 1, 4, record);
    std::string out;
    ASSERT_TRUE(extractRecord(line, out));
    EXPECT_EQ(out, record);

    EXPECT_FALSE(extractRecord("{\"verb\":\"result\"}", out));
}

// -------------------------------------------------------------- service

TEST(SvcService, HelloAndStatusIdentity)
{
    const std::string socket = shortSocket("hello");
    auto log = std::make_shared<SpawnLog>();
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_hello")));
    so.launcher = dudLauncher(log);
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    const ServerHello hello = helloServer(socket);
    ASSERT_TRUE(hello.ok) << hello.error;
    EXPECT_EQ(hello.service, kSvcServiceName);
    EXPECT_EQ(hello.protocol, kSvcProtocolVersion);
    EXPECT_EQ(hello.salt, kSimulatorSalt);
    EXPECT_EQ(hello.version, kEveVersion);

    std::string status;
    ASSERT_TRUE(statusServer(socket, 5, status));
    JsonValue msg;
    std::string verb;
    ASSERT_TRUE(parseMessage(status, msg, verb));
    EXPECT_EQ(verb, "status");
    EXPECT_EQ(jsonStringField(msg, "salt"), kSimulatorSalt);
    EXPECT_EQ(jsonStringField(msg, "version"), kEveVersion);
    EXPECT_EQ(jsonNumberField(msg, "pool_total", -1), 0);
    EXPECT_EQ(jsonNumberField(msg, "workers", -1), 1);

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, ConcurrentClientsShareThePool)
{
    const std::string socket = shortSocket("share");
    const std::string dir = freshDir("svc_share");
    auto log = std::make_shared<SpawnLog>();
    ServiceOptions so = fastService(socket, fastDist(dir));
    so.launcher = threadLauncher(log);
    so.min_workers = 2;
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    // Overlapping sweeps from two concurrent clients: "fir" appears
    // in both and must execute exactly once.
    const std::vector<Job> sweep_a = ioJobs({"vvadd", "fir"});
    const std::vector<Job> sweep_b = ioJobs({"fir", "scan"});
    ClientOptions copts;
    copts.socket_path = socket;
    SweepOutcome a, b;
    std::thread ta([&] { a = submitSweep(sweep_a, copts); });
    std::thread tb([&] { b = submitSweep(sweep_b, copts); });
    ta.join();
    tb.join();

    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_EQ(a.results.size(), 2u);
    ASSERT_EQ(b.results.size(), 2u);
    for (const auto& r : a.results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
    for (const auto& r : b.results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;

    // Three distinct jobs total; the overlap was deduplicated
    // whichever client reached the daemon first.
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.pool_total, 3u);
    EXPECT_EQ(m.jobs_shared + m.jobs_cached, 1u);
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.sweeps, 2u);

    // Byte-identity: both clients' "fir" payloads re-serialize to
    // the identical record — the one stored in the shared cache.
    // Only the leading "index" differs (each client's own sweep
    // position; the cache stores the daemon's pool index).
    const auto payloadOf = [](const std::string& record) {
        const std::size_t at = record.find("\"label\"");
        EXPECT_NE(at, std::string::npos) << record;
        return record.substr(at);
    };
    const std::string fir_a =
        payloadOf(resultToJson(a.results[1], true));
    const std::string fir_b =
        payloadOf(resultToJson(b.results[0], true));
    EXPECT_EQ(fir_a, fir_b);
    ResultCache cache(dir + "/cache");
    cache.load();
    const std::string* stored = cache.recordText(jobKey(sweep_a[1]));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(fir_a, payloadOf(*stored));

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, DisconnectLosesNothingAndResubmitIsIdempotent)
{
    const std::string socket = shortSocket("resubmit");
    auto log = std::make_shared<SpawnLog>();
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_resubmit")));
    so.launcher = threadLauncher(log);
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    // Submit, read only the acceptance, then drop the connection.
    const std::vector<Job> jobs = ioJobs({"vvadd", "fir"});
    {
        Conn conn = connectTo(socket, 5);
        ASSERT_TRUE(conn.valid());
        ASSERT_TRUE(conn.writeLine(makeSubmit(requestFor(jobs))));
        std::string reply;
        ASSERT_TRUE(conn.readLine(reply, 10));
        JsonValue msg;
        std::string verb;
        ASSERT_TRUE(parseMessage(reply, msg, verb));
        ASSERT_EQ(verb, "accepted");
    } // disconnect mid-sweep

    // The pooled jobs keep running to completion regardless.
    ASSERT_TRUE(waitUntil(
        [&] { return svc.metrics().completed == 2; }, 30));

    // Reconnecting resubmits the identical sweep: everything is
    // shared against the pool and replays instantly.
    ClientOptions copts;
    copts.socket_path = socket;
    const SweepOutcome again = submitSweep(jobs, copts);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(again.shared + again.cached, 2u);
    EXPECT_EQ(again.fresh, 0u);
    for (const auto& r : again.results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;
    EXPECT_EQ(svc.metrics().pool_total, 2u);

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, RestartRecoversPendingPool)
{
    // A dead daemon leaves pool/ copies and a pending/ queue behind;
    // materialize that state directly, then boot a daemon on top.
    const std::string dir = freshDir("svc_restart");
    const std::vector<Job> jobs = ioJobs({"vvadd", "fir"});
    {
        JobsDir pool(fastDist(dir));
        std::vector<DistJob> pooled;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            DistJob dj;
            dj.index = i;
            dj.key = jobKey(jobs[i]);
            dj.label = jobs[i].label;
            dj.workload = jobs[i].workload;
            dj.scale = jobs[i].scale;
            dj.config = configCanonical(jobs[i].config);
            dj.remote = true;
            pooled.push_back(std::move(dj));
        }
        pool.appendPoolJobs(pooled, pooled.size());
    }

    const std::string socket = shortSocket("restart");
    auto log = std::make_shared<SpawnLog>();
    ServiceOptions so = fastService(socket, fastDist(dir));
    so.launcher = threadLauncher(log);
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    // Recovered, not resubmitted: the same sweep is entirely shared.
    EXPECT_EQ(svc.metrics().pool_total, 2u);
    ClientOptions copts;
    copts.socket_path = socket;
    const SweepOutcome out = submitSweep(jobs, copts);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.shared, 2u);
    EXPECT_EQ(out.fresh, 0u);
    for (const auto& r : out.results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;

    // Second restart over the *completed* directory, with a fresh
    // cache and workers that cannot run anything: results must come
    // from the recovered done/ records alone.
    const std::string socket2 = shortSocket("restart2");
    auto log2 = std::make_shared<SpawnLog>();
    ServiceOptions so2 = fastService(socket2, fastDist(dir));
    so2.cache_dir = freshDir("svc_restart_cache2");
    so2.launcher = dudLauncher(log2);
    SweepService svc2(so2);
    ServiceRun run2(svc2);
    ASSERT_TRUE(waitForDaemon(socket2));

    EXPECT_EQ(svc2.metrics().completed, 2u);
    copts.socket_path = socket2;
    const SweepOutcome replay = submitSweep(jobs, copts);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_EQ(replay.shared, 2u);
    for (const auto& r : replay.results)
        EXPECT_EQ(r.status, JobStatus::Ok) << r.label;

    svc2.requestShutdown();
    run2.join();
    EXPECT_TRUE(run2.ok.load()) << run2.error;
}

TEST(SvcService, ElasticSurgeAndIdleRetirement)
{
    const std::string socket = shortSocket("elastic");
    auto log = std::make_shared<SpawnLog>();
    log->gate.store(false); // hold workers so queue depth persists
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_elastic")));
    so.launcher = threadLauncher(log);
    so.min_workers = 1;
    so.max_workers = 3;
    so.worker_idle_exit_s = 0.15;
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    ClientOptions copts;
    copts.socket_path = socket;
    SweepOutcome out;
    std::thread client([&] {
        out = submitSweep(
            ioJobs({"vvadd", "fir", "scan", "spmv"}), copts);
    });

    // With four jobs queued and nobody executing, the fleet manager
    // surges to max_workers.
    EXPECT_TRUE(waitUntil([&] { return log->spawned >= 3; }, 10));
    log->gate.store(true);
    client.join();
    ASSERT_TRUE(out.ok) << out.error;

    // Queue empty again: surge workers self-retire on idleness,
    // leaving only the floor.
    EXPECT_TRUE(
        waitUntil([&] { return svc.metrics().workers == 1; }, 10));

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, DeadWorkerIsRespawned)
{
    // The first spawned worker dies instantly (the thread-level
    // analogue of kill -9); the fleet manager must notice and
    // respawn, and the sweep must still complete.
    const std::string socket = shortSocket("respawn");
    auto log = std::make_shared<SpawnLog>();
    auto real = threadLauncher(log);
    auto first = std::make_shared<std::atomic<bool>>(true);
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_respawn")));
    so.launcher = [log, real,
                   first](const DistOptions& d) -> WorkerHandle {
        if (first->exchange(false)) {
            ++log->spawned;
            WorkerHandle h;
            h.running = [] { return false; };
            h.stop = [] {};
            h.join = [] {};
            return h;
        }
        return real(d);
    };
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    ClientOptions copts;
    copts.socket_path = socket;
    const SweepOutcome out = submitSweep(ioJobs({"vvadd"}), copts);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.results[0].status, JobStatus::Ok);
    EXPECT_GE(log->spawned.load(), 2u);

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, SkewedSubmissionsAreRefused)
{
    const std::string socket = shortSocket("skew");
    auto log = std::make_shared<SpawnLog>();
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_skew")));
    so.launcher = dudLauncher(log);
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    const std::string good = makeSubmit(requestFor(ioJobs({"vvadd"})));
    const auto swapped = [&](const std::string& from,
                             const std::string& to) {
        std::string line = good;
        const std::size_t at = line.find(from);
        EXPECT_NE(at, std::string::npos);
        line.replace(at, from.size(), to);
        return line;
    };

    struct Case
    {
        std::string field;
        std::string bogus;
        std::string expect;
    };
    const std::vector<Case> cases = {
        {std::string(kSvcProtocolVersion), "eve-svc-v0",
         "protocol skew"},
        {std::string(kSimulatorSalt), "bogus-salt", "salt skew"},
        {std::string(kEveVersion), "eve-sim 0.0.0", "version skew"},
    };
    for (const auto& c : cases) {
        const std::string reply =
            rawExchange(socket, swapped(c.field, c.bogus));
        JsonValue msg;
        std::string verb;
        ASSERT_TRUE(parseMessage(reply, msg, verb)) << reply;
        EXPECT_EQ(verb, "error") << reply;
        const std::string message = jsonStringField(msg, "message");
        EXPECT_NE(message.find(c.expect), std::string::npos)
            << message;
        // Refusals must leave no partial pool state behind.
        EXPECT_EQ(svc.metrics().pool_total, 0u);
    }

    svc.requestShutdown();
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
}

TEST(SvcService, DrainRefusesSubmissionsThenFinishes)
{
    const std::string socket = shortSocket("drain");
    auto log = std::make_shared<SpawnLog>();
    log->gate.store(false); // keep the pooled job in flight
    ServiceOptions so =
        fastService(socket, fastDist(freshDir("svc_drain")));
    so.launcher = threadLauncher(log);
    SweepService svc(so);
    ServiceRun run(svc);
    ASSERT_TRUE(waitForDaemon(socket));

    // Pool one job fire-and-forget, then ask for a graceful drain
    // while it is still outstanding.
    const std::vector<Job> jobs = ioJobs({"vvadd"});
    {
        Conn conn = connectTo(socket, 5);
        ASSERT_TRUE(conn.valid());
        ASSERT_TRUE(conn.writeLine(makeSubmit(requestFor(jobs))));
        std::string reply;
        ASSERT_TRUE(conn.readLine(reply, 10));
    }
    ASSERT_TRUE(shutdownServer(socket));
    EXPECT_TRUE(svc.draining());

    // Draining daemons refuse new work with a deterministic error.
    ClientOptions copts;
    copts.socket_path = socket;
    const SweepOutcome refused = submitSweep(ioJobs({"fir"}), copts);
    EXPECT_FALSE(refused.ok);
    EXPECT_NE(refused.error.find("draining"), std::string::npos)
        << refused.error;

    // ... but accepted work still runs to completion before exit.
    log->gate.store(true);
    run.join();
    EXPECT_TRUE(run.ok.load()) << run.error;
    EXPECT_EQ(svc.metrics().completed, 1u);
}
