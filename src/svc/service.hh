/**
 * @file
 * Sweep-as-a-service: a persistent daemon multiplexing many clients'
 * sweeps onto one shared job pool.
 *
 * The SweepService listens on a local socket (svc/net.hh) for
 * newline-delimited JSON requests (svc/proto.hh). Each accepted
 * submission is folded into a single multi-tenant job pool layered on
 * the distributed job-file protocol (exp/dist.hh):
 *
 *  - every job is identified by its content key (exp/cache.hh), so
 *    identical jobs submitted by different tenants collapse to ONE
 *    pool entry and execute once;
 *  - jobs already in the result cache are served instantly without
 *    touching the pool at all;
 *  - fresh jobs get daemon-assigned pool indices and are appended to
 *    the jobs directory via JobsDir::appendPoolJobs; an authoritative
 *    copy under pool/ makes the pool recoverable across daemon
 *    restarts (results carry no keys — pool/ is the index -> key map).
 *
 * Results stream back to each client as the *original* record bytes
 * published by workers (or stored in the cache) — the daemon never
 * re-serializes a payload, so every client's merged output is
 * byte-identical to a single-host batch run of the same sweep.
 *
 * Workers are ordinary `eve_sweep --worker` processes in persistent
 * pool mode. The daemon runs an elastic fleet: a floor of min_workers
 * long-lived workers, plus surge workers spawned as pending depth
 * grows, which retire themselves after DistOptions::idle_exit_s of
 * idleness. A worker lost to kill -9 is recovered by the protocol's
 * ordinary lease reclaim, and the fleet manager respawns capacity.
 *
 * Lifecycle: requestShutdown() (the SIGTERM path) drains — new
 * submissions are refused, accepted sweeps run to completion and
 * finish streaming, then workers are stopped via the protocol's stop
 * marker and run() returns. A client that disconnects mid-sweep loses
 * nothing: its jobs stay pooled, and resubmitting the same sweep
 * after reconnecting is idempotent (completed jobs replay instantly).
 */

#ifndef EVE_SVC_SERVICE_HH
#define EVE_SVC_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/cache.hh"
#include "exp/dist.hh"
#include "svc/net.hh"
#include "svc/proto.hh"

namespace eve::svc
{

/**
 * Handle on one spawned worker, whatever its execution vehicle
 * (forked process in production, thread in tests).
 */
struct WorkerHandle
{
    std::function<bool()> running; ///< still alive?
    std::function<void()> stop;    ///< request graceful stop (idempotent)
    std::function<void()> join;    ///< reap; called once, after stop
};

/** Spawns one pool worker configured by the given DistOptions. */
using WorkerLauncher =
    std::function<WorkerHandle(const exp::DistOptions&)>;

/**
 * The default launcher: fork/exec this binary (/proc/self/exe) as
 * `eve_sweep --worker` in persistent pool mode. stop() sends SIGTERM
 * (the worker finishes and publishes its in-flight job first).
 */
WorkerLauncher processLauncher();

/**
 * The argv (argv[0] included, no trailing nullptr) processLauncher()
 * spawns a worker with. Exposed so tests can assert that every
 * execution-relevant DistOptions field — notably checkpoint_dir —
 * actually reaches the child process.
 */
std::vector<std::string> workerArgs(const exp::DistOptions& d);

struct ServiceOptions
{
    /** Unix-domain socket path the daemon listens on. */
    std::string socket_path;

    /**
     * Pool protocol tunables; jobs_dir names the pool directory.
     * persistent/idle_exit_s are per-worker and set by the fleet
     * manager — values here are ignored.
     */
    exp::DistOptions dist;

    /** Result-cache directory ("" = <jobs_dir>/cache). */
    std::string cache_dir;

    /** Long-lived worker floor (never self-retire). */
    unsigned min_workers = 1;

    /** Fleet ceiling; 0 = hardware_concurrency(). */
    unsigned max_workers = 0;

    /** Surge workers retire after this long without a claim. */
    double worker_idle_exit_s = 5;

    /** Manager/accept tick (also the drain/stream poll period). */
    double tick_s = 0.05;

    /** Suppress inform() chatter (tests). */
    bool quiet = false;

    /** Worker spawner; nullptr = processLauncher(). */
    WorkerLauncher launcher;
};

/** Point-in-time service metrics (the status/watch verbs). */
struct ServiceMetrics
{
    std::size_t pool_total = 0;   ///< pool entries ever created
    std::size_t pending = 0;      ///< jobs awaiting a claim
    std::size_t claimed = 0;      ///< jobs being executed
    std::size_t completed = 0;    ///< pool entries with a result
    std::size_t quarantined = 0;
    std::size_t workers = 0;      ///< live worker count
    std::size_t sweeps = 0;       ///< submissions accepted
    std::size_t clients = 0;      ///< connections currently open
    std::size_t jobs_shared = 0;  ///< submitted jobs deduplicated
    std::size_t jobs_cached = 0;  ///< submitted jobs served from cache
    std::size_t cache_entries = 0;
    double jobs_per_s = 0;        ///< completions over the last 30 s
    double uptime_s = 0;
    bool draining = false;
};

class SweepService
{
  public:
    explicit SweepService(ServiceOptions options);
    ~SweepService();

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /**
     * Serve until shutdown: bind the socket, recover the pool from a
     * previous daemon's jobs directory, start the fleet manager, and
     * accept clients. Blocks; returns true after a clean drain, false
     * when the socket could not be bound (@p err set).
     */
    bool run(std::string* err = nullptr);

    /**
     * Begin a graceful drain from any thread or a signal-adjacent
     * context: refuse new submissions, let accepted sweeps finish and
     * stream out, stop the workers, make run() return.
     */
    void requestShutdown();

    /** True once requestShutdown() was called. */
    bool draining() const { return drain.load(); }

    /** Current metrics snapshot (also what the status verb reports). */
    ServiceMetrics metrics();

  private:
    struct Worker
    {
        WorkerHandle handle;
        bool surge = false; ///< retires on idleness (not floor)
    };

    /** One client connection being served on its own thread. */
    struct Session
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void managerLoop();
    void serveClient(Conn conn);
    void handleSubmit(Conn& conn, const JsonValue& msg);
    std::string statusJson();

    /** Rebuild pool state from pool/, done/, failed/ after restart. */
    void recoverPool();

    /** Ingest newly published done/failed/quarantined results. */
    void ingestResults();

    /** Reap dead workers, spawn toward the demand-driven target. */
    void manageFleet();
    void spawnWorker(bool surge);

    /** Record a completed pool entry and wake streaming sessions. */
    void recordResult(std::size_t index, std::string record,
                      bool verified_ok);

    ServiceOptions opts;
    exp::JobsDir pool;
    exp::ResultCache cache;
    ListenSocket listener;

    std::mutex mutex;             ///< guards everything below
    std::condition_variable cv;   ///< result arrivals + shutdown
    std::unordered_map<std::string, std::size_t> key_to_index;
    std::map<std::size_t, exp::DistJob> pool_jobs;
    std::map<std::size_t, std::string> results; ///< index -> record
    std::size_t next_index = 0;
    std::size_t sweeps_accepted = 0;
    std::size_t shared_total = 0;
    std::size_t cached_total = 0;
    std::deque<std::chrono::steady_clock::time_point> completions;
    std::vector<Worker> fleet;
    std::size_t worker_seq = 0;
    std::list<Session> sessions;
    std::size_t open_clients = 0;

    std::atomic<bool> drain{false};
    std::atomic<bool> stopping{false};
    std::thread manager;
    std::chrono::steady_clock::time_point started;
};

} // namespace eve::svc

#endif // EVE_SVC_SERVICE_HH
