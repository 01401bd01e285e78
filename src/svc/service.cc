#include "svc/service.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fs.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/version.hh"
#include "exp/sink.hh"

namespace eve::svc
{

namespace
{

/** Sorted file names in @p dir; empty when it does not exist. */
std::vector<std::string>
listDir(const std::string& dir)
{
    std::vector<std::string> names;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return names;
    for (const auto& entry : it)
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** Parse the N of "job-N.json" / "job-N.job"; false otherwise. */
bool
parseJobIndex(const std::string& name, std::size_t& out)
{
    if (name.rfind("job-", 0) != 0)
        return false;
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot <= 4)
        return false;
    const std::string digits = name.substr(4, dot - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::strtoull(digits.c_str(), nullptr, 10);
    return true;
}

/** True when @p record is a verified-Ok resultToJson record. */
bool
recordIsOk(const std::string& record)
{
    JsonValue root;
    if (!parseJson(record, root) || !root.isObject())
        return false;
    return jsonStringField(root, "status") == "ok";
}

} // namespace

std::vector<std::string>
workerArgs(const exp::DistOptions& d)
{
    std::vector<std::string> args = {
        "/proc/self/exe",
        "--worker",
        "--jobs-dir", d.jobs_dir,
        "--persistent",
        "--lease-timeout", std::to_string(d.lease_timeout_s),
        "--heartbeat", std::to_string(d.heartbeat_s),
        "--poll", std::to_string(d.poll_s),
        "--join-timeout", std::to_string(d.join_timeout_s),
        "--quiet",
    };
    if (d.idle_exit_s > 0) {
        args.push_back("--idle-exit");
        args.push_back(std::to_string(d.idle_exit_s));
    }
    if (!d.worker_id.empty()) {
        args.push_back("--worker-id");
        args.push_back(d.worker_id);
    }
    if (!d.checkpoint_dir.empty()) {
        args.push_back("--checkpoint-dir");
        args.push_back(d.checkpoint_dir);
    }
    return args;
}

WorkerLauncher
processLauncher()
{
    return [](const exp::DistOptions& d) -> WorkerHandle {
        std::vector<std::string> args = workerArgs(d);

        // Built before fork(): the child of a multithreaded parent
        // may only call async-signal-safe functions, so no
        // allocation between fork() and execv().
        std::vector<char*> argv;
        for (auto& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }

        WorkerHandle h;
        if (pid < 0) {
            warn("sweep service: fork failed; worker not spawned");
            h.running = [] { return false; };
            h.stop = [] {};
            h.join = [] {};
            return h;
        }
        // reaped-flag shared by the three closures: waitpid must run
        // exactly once per exit, and running() must stay false after.
        auto reaped = std::make_shared<bool>(false);
        h.running = [pid, reaped] {
            if (*reaped)
                return false;
            int status = 0;
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                *reaped = true;
                return false;
            }
            return r == 0;
        };
        h.stop = [pid, reaped] {
            if (!*reaped)
                ::kill(pid, SIGTERM);
        };
        h.join = [pid, reaped] {
            if (!*reaped) {
                int status = 0;
                ::waitpid(pid, &status, 0);
                *reaped = true;
            }
        };
        return h;
    };
}

SweepService::SweepService(ServiceOptions options)
    : opts(std::move(options)),
      pool(opts.dist),
      cache(opts.cache_dir.empty() ? opts.dist.jobs_dir + "/cache"
                                   : opts.cache_dir)
{
    if (!opts.launcher)
        opts.launcher = processLauncher();
    if (opts.max_workers == 0)
        opts.max_workers =
            std::max(1u, std::thread::hardware_concurrency());
    opts.min_workers = std::min(opts.min_workers, opts.max_workers);
}

SweepService::~SweepService()
{
    // run() joins everything on the normal path; this is the safety
    // net for a service destroyed without ever running.
    stopping.store(true);
    cv.notify_all();
    for (auto& s : sessions)
        if (s.thread.joinable())
            s.thread.join();
    if (manager.joinable())
        manager.join();
}

bool
SweepService::run(std::string* err)
{
    // The default socket lives inside the jobs directory, and a
    // fresh deployment starts with neither: the pool layout is
    // otherwise only created on the first submission.
    makeDirs(opts.dist.jobs_dir);
    if (!listener.bind(opts.socket_path, err))
        return false;

    cache.load();
    recoverPool();
    pool.clearStop();
    exp::clearWorkerStop();
    started = std::chrono::steady_clock::now();

    if (!opts.quiet)
        inform("sweep service: listening on %s (pool %s, %zu jobs "
               "recovered, %zu cached records)",
               opts.socket_path.c_str(), opts.dist.jobs_dir.c_str(),
               pool_jobs.size(), cache.size());

    manager = std::thread([this] { managerLoop(); });

    while (!stopping.load()) {
        Conn conn = listener.accept(opts.tick_s);
        if (conn.valid() && !stopping.load()) {
            std::lock_guard<std::mutex> lock(mutex);
            // Reap finished session threads so the list stays small.
            for (auto it = sessions.begin(); it != sessions.end();) {
                if (it->done.load()) {
                    it->thread.join();
                    it = sessions.erase(it);
                } else {
                    ++it;
                }
            }
            sessions.emplace_back();
            Session& s = sessions.back();
            s.thread = std::thread(
                [this, &s, c = std::move(conn)]() mutable {
                    serveClient(std::move(c));
                    s.done.store(true);
                });
        }

        if (drain.load()) {
            std::lock_guard<std::mutex> lock(mutex);
            if (results.size() >= pool_jobs.size()) {
                // Every accepted job is terminal; streaming sessions
                // can finish from the results map without blocking.
                stopping.store(true);
                cv.notify_all();
            }
        }
    }

    // Teardown: stop the fleet via the protocol's stop marker (and a
    // polite per-worker stop), then join everything.
    pool.requestStop();
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (auto& w : fleet)
            w.handle.stop();
        for (auto& w : fleet)
            w.handle.join();
        fleet.clear();
    }
    cv.notify_all();
    for (auto& s : sessions)
        if (s.thread.joinable())
            s.thread.join();
    sessions.clear();
    if (manager.joinable())
        manager.join();
    listener.close();
    pool.clearStop();
    if (!opts.quiet)
        inform("sweep service: drained (%zu pool jobs, %zu sweeps "
               "served)",
               pool_jobs.size(), sweeps_accepted);
    return true;
}

void
SweepService::requestShutdown()
{
    drain.store(true);
    cv.notify_all();
}

void
SweepService::recoverPool()
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& name : listDir(pool.poolDir())) {
        std::size_t index = 0;
        if (!parseJobIndex(name, index))
            continue;
        std::string text;
        if (!readFile(pool.poolDir() + "/" + name, text))
            continue;
        exp::DistJob job;
        if (!parseDistJob(text, job))
            continue;
        key_to_index[job.key] = job.index;
        pool_jobs[job.index] = std::move(job);
        next_index = std::max(next_index, index + 1);
    }
    ingestResults();
}

void
SweepService::ingestResults()
{
    // Caller holds the mutex. The directory scans race only with
    // workers' atomic renames, so a record is either absent or
    // complete — never torn.
    for (const bool ok_dir : {true, false}) {
        const std::string dir =
            ok_dir ? pool.doneDir() : pool.failedDir();
        for (const auto& name : listDir(dir)) {
            std::size_t index = 0;
            if (!parseJobIndex(name, index) || results.count(index))
                continue;
            std::string record;
            if (!readFile(dir + "/" + name, record))
                continue;
            while (!record.empty() &&
                   (record.back() == '\n' || record.back() == '\r'))
                record.pop_back();
            recordResult(index, std::move(record), ok_dir);
        }
    }

    // Quarantined jobs never publish a record; synthesize a Failed
    // one so waiting clients get a terminal answer, exactly as the
    // batch orchestrator's merge() does.
    for (const auto& name : listDir(pool.quarantineDir())) {
        std::size_t index = 0;
        if (!parseJobIndex(name, index) || results.count(index))
            continue;
        auto it = pool_jobs.find(index);
        if (it == pool_jobs.end())
            continue;
        exp::JobResult r;
        r.index = index;
        r.label = it->second.label;
        r.workload = it->second.workload;
        r.status = exp::JobStatus::Failed;
        r.error = "quarantined after exhausting the retry budget";
        recordResult(index, exp::resultToJson(r, true), false);
    }
}

void
SweepService::recordResult(std::size_t index, std::string record,
                           bool verified_ok)
{
    if (verified_ok) {
        auto it = pool_jobs.find(index);
        if (it != pool_jobs.end())
            cache.storeRecord(it->second.key, record);
    }
    results[index] = std::move(record);
    completions.push_back(std::chrono::steady_clock::now());
    cv.notify_all();
}

void
SweepService::managerLoop()
{
    while (!stopping.load()) {
        pool.reclaimExpired();
        pool.quarantinePartials();
        {
            std::lock_guard<std::mutex> lock(mutex);
            ingestResults();
        }
        manageFleet();
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock,
                    std::chrono::duration<double>(opts.tick_s),
                    [this] { return stopping.load(); });
    }
}

void
SweepService::manageFleet()
{
    const exp::DistStatus s = pool.status();
    const std::size_t depth = s.pending + s.claimed;

    std::lock_guard<std::mutex> lock(mutex);
    for (auto it = fleet.begin(); it != fleet.end();) {
        if (!it->handle.running()) {
            it->handle.join();
            it = fleet.erase(it);
        } else {
            ++it;
        }
    }
    // Floor workers are long-lived; surge workers are spawned up to
    // queue depth (capped at max_workers) and retire themselves via
    // idle_exit_s — scale-down is worker-driven, not daemon-driven.
    while (fleet.size() < opts.min_workers)
        spawnWorker(false);
    const std::size_t target =
        std::min<std::size_t>(opts.max_workers, depth);
    while (fleet.size() < target)
        spawnWorker(true);
}

void
SweepService::spawnWorker(bool surge)
{
    exp::DistOptions w = opts.dist;
    w.persistent = true;
    w.idle_exit_s = surge ? opts.worker_idle_exit_s : 0;
    w.lanes = 0;
    w.progress = nullptr;
    if (w.worker_id.empty())
        w.worker_id = "svc-worker-" + std::to_string(worker_seq);
    else
        w.worker_id += "-" + std::to_string(worker_seq);
    ++worker_seq;

    Worker worker;
    worker.handle = opts.launcher(w);
    worker.surge = surge;
    fleet.push_back(std::move(worker));
    if (!opts.quiet)
        inform("sweep service: spawned %s worker %s (fleet %zu)",
               surge ? "surge" : "floor", w.worker_id.c_str(),
               fleet.size());
}

std::string
SweepService::statusJson()
{
    const ServiceMetrics m = metrics();
    std::ostringstream os;
    os << "{\"verb\":\"status\""
       << ",\"service\":\"" << jsonEscape(kSvcServiceName) << "\""
       << ",\"protocol\":\"" << jsonEscape(kSvcProtocolVersion) << "\""
       << ",\"salt\":\"" << jsonEscape(exp::kSimulatorSalt) << "\""
       << ",\"version\":\"" << jsonEscape(kEveVersion) << "\""
       << ",\"draining\":" << (m.draining ? "true" : "false")
       << ",\"uptime_s\":" << jsonNumber(m.uptime_s)
       << ",\"pool_total\":" << m.pool_total
       << ",\"pending\":" << m.pending
       << ",\"claimed\":" << m.claimed
       << ",\"completed\":" << m.completed
       << ",\"quarantined\":" << m.quarantined
       << ",\"workers\":" << m.workers
       << ",\"clients\":" << m.clients
       << ",\"sweeps\":" << m.sweeps
       << ",\"jobs_shared\":" << m.jobs_shared
       << ",\"jobs_cached\":" << m.jobs_cached
       << ",\"cache_entries\":" << m.cache_entries
       << ",\"jobs_per_s\":" << jsonNumber(m.jobs_per_s) << "}";
    return os.str();
}

ServiceMetrics
SweepService::metrics()
{
    const exp::DistStatus s = pool.status();
    const auto now = std::chrono::steady_clock::now();

    std::lock_guard<std::mutex> lock(mutex);
    while (!completions.empty() &&
           std::chrono::duration<double>(now - completions.front())
                   .count() > 30.0)
        completions.pop_front();

    ServiceMetrics m;
    m.pool_total = next_index;
    m.pending = s.pending;
    m.claimed = s.claimed;
    m.completed = results.size();
    m.quarantined = s.quarantined;
    m.workers = fleet.size();
    m.sweeps = sweeps_accepted;
    m.clients = open_clients;
    m.jobs_shared = shared_total;
    m.jobs_cached = cached_total;
    m.cache_entries = cache.size();
    m.uptime_s =
        std::chrono::duration<double>(now - started).count();
    const double window = std::min(30.0, std::max(1.0, m.uptime_s));
    m.jobs_per_s = double(completions.size()) / window;
    m.draining = drain.load();
    return m;
}

void
SweepService::serveClient(Conn conn)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++open_clients;
    }

    std::string line;
    while (!stopping.load()) {
        const ReadResult rr = conn.readLineEx(line, opts.tick_s);
        if (rr == ReadResult::Closed)
            break;
        if (rr == ReadResult::Timeout)
            continue;

        JsonValue msg;
        std::string verb;
        if (!parseMessage(line, msg, verb)) {
            if (!conn.writeLine(makeError("malformed request")))
                break;
            continue;
        }

        if (verb == "hello") {
            if (!conn.writeLine(makeHello()))
                break;
        } else if (verb == "status") {
            if (!conn.writeLine(statusJson()))
                break;
        } else if (verb == "watch") {
            const double interval = std::max(
                opts.tick_s, jsonNumberField(msg, "interval_s", 1));
            // Stream snapshots until the peer hangs up or the daemon
            // stops; inbound lines during a watch are ignored.
            while (!stopping.load()) {
                if (!conn.writeLine(statusJson()))
                    break;
                const ReadResult wr = conn.readLineEx(line, interval);
                if (wr == ReadResult::Closed)
                    break;
            }
            break;
        } else if (verb == "shutdown") {
            // Drain before acking: a client acting on the ok (e.g. a
            // test probing refusal) must already see drain in force.
            requestShutdown();
            if (!opts.quiet)
                inform("sweep service: shutdown requested; draining");
            conn.writeLine(makeVerb("ok"));
        } else if (verb == "submit") {
            handleSubmit(conn, msg);
        } else {
            if (!conn.writeLine(makeError("unknown verb: " + verb)))
                break;
        }
    }

    std::lock_guard<std::mutex> lock(mutex);
    --open_clients;
}

void
SweepService::handleSubmit(Conn& conn, const JsonValue& msg)
{
    if (drain.load()) {
        conn.writeLine(
            makeError("daemon is draining; submission refused"));
        return;
    }

    SubmitRequest req;
    if (!parseSubmit(msg, req)) {
        conn.writeLine(makeError("malformed submit request"));
        return;
    }
    if (req.protocol != kSvcProtocolVersion) {
        conn.writeLine(makeError(
            "protocol skew: daemon speaks " +
            std::string(kSvcProtocolVersion) + ", client sent " +
            req.protocol + " — upgrade the older side"));
        return;
    }
    if (req.salt != exp::kSimulatorSalt) {
        conn.writeLine(makeError(
            "simulator salt skew: daemon is " +
            std::string(exp::kSimulatorSalt) + ", client is " +
            req.salt + " — results would not be comparable; refuse"));
        return;
    }
    if (req.version != kEveVersion) {
        conn.writeLine(makeError(
            "version skew: daemon is " + std::string(kEveVersion) +
            ", client is " + req.version +
            " — restart the daemon from the same binary"));
        return;
    }
    if (req.jobs.empty()) {
        conn.writeLine(makeError("empty submission"));
        return;
    }

    // Streamed per sweep-local job: either a record that is already
    // in hand (cache hit / completed pool entry) or a pool index to
    // await. Classified under one lock so dedup is race-free across
    // concurrent submissions.
    struct Await
    {
        std::size_t client_index;
        std::size_t pool_index;
    };
    std::vector<std::pair<std::size_t, std::string>> ready;
    std::vector<Await> waiting;
    std::size_t n_cached = 0, n_shared = 0, n_fresh = 0;

    {
        std::lock_guard<std::mutex> lock(mutex);

        // Verify first, commit second: a refused submission must not
        // leave half a sweep in the pool.
        for (const auto& dj : req.jobs) {
            if (key_to_index.count(dj.key) || cache.recordText(dj.key))
                continue;
            exp::Job rebuilt;
            if (!rebuildJob(dj, rebuilt)) {
                conn.writeLine(makeError(
                    "job \"" + dj.label +
                    "\" (key " + dj.key + ") is not rebuildable "
                    "under this daemon — content-key mismatch; the "
                    "client binary likely differs from the daemon's"));
                return;
            }
        }

        std::vector<exp::DistJob> fresh;
        for (std::size_t ci = 0; ci < req.jobs.size(); ++ci) {
            const exp::DistJob& dj = req.jobs[ci];
            auto it = key_to_index.find(dj.key);
            if (it != key_to_index.end()) {
                ++n_shared;
                ++shared_total;
                auto done = results.find(it->second);
                if (done != results.end())
                    ready.emplace_back(ci, done->second);
                else
                    waiting.push_back({ci, it->second});
                continue;
            }
            if (const std::string* rec = cache.recordText(dj.key)) {
                ++n_cached;
                ++cached_total;
                ready.emplace_back(ci, *rec);
                continue;
            }
            ++n_fresh;
            exp::DistJob pooled = dj;
            pooled.index = next_index++;
            key_to_index[pooled.key] = pooled.index;
            pool_jobs[pooled.index] = pooled;
            waiting.push_back({ci, pooled.index});
            fresh.push_back(std::move(pooled));
        }
        ++sweeps_accepted;
        if (!fresh.empty())
            pool.appendPoolJobs(fresh, next_index);
    }
    cv.notify_all();

    const std::size_t total = req.jobs.size();
    if (!opts.quiet)
        inform("sweep service: accepted \"%s\" (%zu jobs: %zu "
               "cached, %zu shared, %zu fresh)",
               req.sweep.c_str(), total, n_cached, n_shared, n_fresh);
    if (!conn.writeLine("{\"verb\":\"accepted\",\"sweep\":\"" +
                        jsonEscape(req.sweep) +
                        "\",\"total\":" + std::to_string(total) +
                        ",\"cached\":" + std::to_string(n_cached) +
                        ",\"shared\":" + std::to_string(n_shared) +
                        ",\"fresh\":" + std::to_string(n_fresh) + "}"))
        return;

    // Stream phase. In-hand records first (sweep-local order), then
    // pool completions as they land. A failed write means the client
    // disconnected: return silently — the pooled jobs keep running,
    // and an idempotent resubmit replays everything.
    std::size_t done = 0, ok = 0;
    auto send = [&](std::size_t ci, const std::string& rec) {
        ++done;
        if (recordIsOk(rec))
            ++ok;
        return conn.writeLine(makeResult(ci, done, total, rec));
    };

    for (const auto& [ci, rec] : ready)
        if (!send(ci, rec))
            return;

    while (!waiting.empty() && !stopping.load()) {
        std::vector<std::pair<std::size_t, std::string>> arrived;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait_for(
                lock, std::chrono::duration<double>(opts.tick_s));
            for (auto it = waiting.begin(); it != waiting.end();) {
                auto r = results.find(it->pool_index);
                if (r != results.end()) {
                    arrived.emplace_back(it->client_index, r->second);
                    it = waiting.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const auto& [ci, rec] : arrived)
            if (!send(ci, rec))
                return;
    }
    if (!waiting.empty())
        return; // stopping without drain; client will resubmit

    conn.writeLine("{\"verb\":\"sweep-done\",\"ok\":" +
                   std::to_string(ok) +
                   ",\"failed\":" + std::to_string(total - ok) +
                   ",\"total\":" + std::to_string(total) + "}");
}

} // namespace eve::svc
