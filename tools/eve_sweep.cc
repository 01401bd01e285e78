/**
 * @file
 * eve_sweep — gem5-runner-style command-line front end for the
 * experiment subsystem. Every axis is a comma-separated flag; the
 * cartesian product runs on a thread pool and lands in JSONL/CSV.
 *
 *   eve_sweep --systems O3,O3EVE --pf 4,8 --workloads vvadd,backprop
 *             --llc-mshrs 32,64 --threads 8 --small
 *             --json out.jsonl --csv out.csv
 *
 * With --jobs-dir the same sweep runs over the distributed job-file
 * protocol (exp/dist.hh): the orchestrator writes one job file per
 * content key under the directory and executes through in-process
 * lanes, while any number of `eve_sweep --worker --jobs-dir DIR`
 * processes — on this host or on others sharing the directory —
 * claim and run jobs alongside it.
 *
 * Flags:
 *   --systems   IO,O3,O3IV,O3DV,O3EVE   (default O3EVE)
 *   --pf        EVE parallelization factors: O3EVE becomes one
 *               O3+EVE-N system per N; other systems have no pf
 *   --llc-mshrs LLC MSHR counts                 (axis)
 *   --l2-mshrs  L2 MSHR counts                  (axis)
 *   --dtus      data-transfer-unit counts       (axis)
 *   --prefetch  LLC prefetch line depths        (axis)
 *   --workloads workload names (default: all paper workloads)
 *   --threads   worker threads (default: hardware concurrency)
 *   --parity GOLDEN  check every result's timing fingerprint
 *               against the golden file (exp/perf.hh); exit 1 and list
 *               divergences on failure. The file is read before any
 *               job runs, so a missing or malformed golden costs no
 *               sweep.
 *   --update-parity GOLDEN  write the sweep's timing fingerprints to
 *               GOLDEN; nothing is written unless every job ran Ok.
 *               Under --parity and --update-parity every job is
 *               simulated fresh: the result cache and the jobs
 *               directory are ignored, because their records may come
 *               from an older binary under the same salt — exactly
 *               what the goldens exist to catch.
 *   --small     use small smoke-test inputs
 *   --paper     use paper-scale inputs (mmult 1024x1024x1024); meant
 *               to be combined with --sample
 *   --sample SPEC  interval sampling (sim/sampling.hh): "default",
 *               "INTERVAL[,WARMUP[,STRIDE]]", or the canonical
 *               "interval=N;warmup=N;stride=N". Cycle counts are
 *               extrapolated from the measured windows, results are
 *               tagged sampled, and cache/job keys include the
 *               schedule so sampled and exact records never mix.
 *               Incompatible with --parity and --update-parity
 *               (goldens are exact).
 *               Defaults to $EVE_EXP_SAMPLE when set.
 *   --checkpoint-dir PATH  save/restore functional fast-forward
 *               checkpoints for sampled jobs under PATH; jobs that
 *               share a (workload, scale, vector-length, schedule)
 *               prefix restore one snapshot instead of re-running
 *               the functional warm-up. Defaults to
 *               $EVE_EXP_CKPT_DIR when set.
 *   --keep-going / --abort-on-failure  failure policy (default keep)
 *   --json PATH write JSON lines        --csv PATH write CSV
 *   --json-payload PATH  write JSON lines without the host wall-clock
 *               field; byte-comparable across runs/hosts/thread counts
 *   --cache-dir PATH  content-hash result cache: jobs whose key
 *               (canonical config + workload + scale + simulator
 *               salt) is already stored are not re-simulated, and
 *               fresh Ok results are stored back — a repeated
 *               invocation executes 0 jobs and emits byte-identical
 *               JSONL. Defaults to $EVE_EXP_CACHE_DIR when set.
 *   --no-cache  disable the result cache (overrides both)
 *   --quiet     suppress progress lines
 *
 * Distributed flags (see docs/OPERATIONS.md):
 *   --jobs-dir DIR   run the sweep over the job-file protocol under
 *               DIR. Defaults to $EVE_EXP_JOBS_DIR when set.
 *   --worker    claim-and-execute loop over --jobs-dir; needs no
 *               sweep flags (jobs are rebuilt from their files).
 *               SIGINT/SIGTERM make the worker finish and publish
 *               its in-flight job, then exit cleanly; a second
 *               signal kills it immediately.
 *   --status    print the jobs directory's state (plus this binary's
 *               version and simulator salt) and exit: 0 when the
 *               sweep is complete, 2 when a job failed or was
 *               abandoned, 1 otherwise
 *   --stop      ask every worker on --jobs-dir to exit, then exit
 *   --orchestrate-only  orchestrate with zero local execution lanes
 *               (job files + wait + merge only)
 *   --lease-timeout SEC seconds a claim may stay unchanged before
 *               another process takes the job over (default 60). The
 *               heartbeat is a tenth of it, the idle poll a tenth
 *               but at most 0.25 s, and a worker waits ten leases
 *               for the manifest; a job is abandoned after 3 claims.
 *
 * Several invocations may share one --cache-dir: appends are
 * flock-serialized, so concurrent sweeps over overlapping grids each
 * reuse what the others have already stored (docs/OPERATIONS.md §2).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/version.hh"
#include "driver/table.hh"
#include "exp/exp.hh"
#include "exp/perf.hh"
#include "workloads/workload.hh"

using namespace eve;

namespace
{

std::vector<std::string>
splitList(const std::string& arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::vector<unsigned>
splitUnsigned(const std::string& flag, const std::string& arg)
{
    std::vector<unsigned> out;
    for (const auto& tok : splitList(arg)) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
        if (!end || *end != '\0')
            fatal("%s: '%s' is not a number", flag.c_str(),
                  tok.c_str());
        out.push_back(static_cast<unsigned>(v));
    }
    if (out.empty())
        fatal("%s: empty value list", flag.c_str());
    return out;
}

double
parseSeconds(const std::string& flag, const std::string& arg)
{
    char* end = nullptr;
    const double v = std::strtod(arg.c_str(), &end);
    if (!end || *end != '\0' || v <= 0)
        fatal("%s: '%s' is not a positive number", flag.c_str(),
              arg.c_str());
    return v;
}

/**
 * Default workload axis: the paper's Table IV list. The RiVEC-style
 * extension kernels (axpy, blackscholes, streamcluster,
 * particlefilter) and the other extension kernels (spmv, fir, scan)
 * are opt-in via --workloads.
 */
const std::vector<std::string> kAllWorkloads = {
    "vvadd", "mmult", "k-means", "pathfinder", "jacobi-2d",
    "backprop", "sw"};

/** Signals received so far (worker mode). */
volatile std::sig_atomic_t g_signals = 0;

/**
 * Worker: first SIGINT/SIGTERM requests a cooperative stop (the
 * in-flight job finishes and publishes); the second kills the
 * process the traditional way.
 */
void
workerSignalHandler(int)
{
    const std::sig_atomic_t prior = g_signals;
    g_signals = prior + 1;
    if (prior > 0)
        std::_Exit(130);
    exp::requestWorkerStop();
}

} // namespace

int
main(int argc, char** argv)
{
    setInformEnabled(false);

    std::vector<std::string> systems = {"O3EVE"};
    std::vector<std::string> workloads = kAllWorkloads;
    std::vector<unsigned> pfs, llc_mshrs, l2_mshrs, dtus, prefetch;
    std::string json_path, csv_path, payload_path, parity_path;
    std::string update_parity_path;
    std::string cache_dir = exp::envCacheDir();
    bool no_cache = false;
    exp::RunnerOptions opts;
    opts.threads = exp::envThreads();
    opts.checkpoint_dir = exp::envCheckpointDir();
    std::string sample_spec = exp::envSampling();
    bool small = false;
    bool paper = false;
    bool quiet = false;

    exp::DistOptions dist;
    dist.jobs_dir = exp::envJobsDir();
    enum class Mode { Sweep, Worker, Status, Stop };
    Mode mode = Mode::Sweep;
    bool orchestrate_only = false;

    auto need = [&](int i) -> std::string {
        if (i + 1 >= argc)
            fatal("%s needs a value", argv[i]);
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--systems") {
            systems = splitList(need(i)); ++i;
        } else if (flag == "--workloads") {
            workloads = splitList(need(i)); ++i;
        } else if (flag == "--pf") {
            pfs = splitUnsigned(flag, need(i)); ++i;
        } else if (flag == "--llc-mshrs") {
            llc_mshrs = splitUnsigned(flag, need(i)); ++i;
        } else if (flag == "--l2-mshrs") {
            l2_mshrs = splitUnsigned(flag, need(i)); ++i;
        } else if (flag == "--dtus") {
            dtus = splitUnsigned(flag, need(i)); ++i;
        } else if (flag == "--prefetch") {
            prefetch = splitUnsigned(flag, need(i)); ++i;
        } else if (flag == "--threads") {
            opts.threads = splitUnsigned(flag, need(i)).front(); ++i;
        } else if (flag == "--parity") {
            parity_path = need(i); ++i;
        } else if (flag == "--update-parity") {
            update_parity_path = need(i); ++i;
        } else if (flag == "--json") {
            json_path = need(i); ++i;
        } else if (flag == "--json-payload") {
            payload_path = need(i); ++i;
        } else if (flag == "--csv") {
            csv_path = need(i); ++i;
        } else if (flag == "--cache-dir") {
            cache_dir = need(i); ++i;
        } else if (flag == "--no-cache") {
            no_cache = true;
        } else if (flag == "--small") {
            small = true;
        } else if (flag == "--paper") {
            paper = true;
        } else if (flag == "--sample") {
            sample_spec = need(i); ++i;
        } else if (flag == "--checkpoint-dir") {
            opts.checkpoint_dir = need(i); ++i;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (flag == "--keep-going") {
            opts.on_failure = exp::FailurePolicy::Record;
        } else if (flag == "--abort-on-failure") {
            opts.on_failure = exp::FailurePolicy::Abort;
        } else if (flag == "--jobs-dir") {
            dist.jobs_dir = need(i); ++i;
        } else if (flag == "--worker") {
            mode = Mode::Worker;
        } else if (flag == "--status") {
            mode = Mode::Status;
        } else if (flag == "--stop") {
            mode = Mode::Stop;
        } else if (flag == "--orchestrate-only") {
            orchestrate_only = true;
        } else if (flag == "--lease-timeout") {
            dist.lease_timeout_s = parseSeconds(flag, need(i)); ++i;
        } else if (flag == "--help" || flag == "-h") {
            std::printf(
                "usage: eve_sweep [--systems LIST] [--pf LIST]\n"
                "  [--llc-mshrs LIST] [--l2-mshrs LIST] [--dtus LIST]\n"
                "  [--prefetch LIST] [--workloads LIST] [--threads N]\n"
                "  [--parity GOLDEN] [--update-parity GOLDEN]\n"
                "  [--small | --paper] [--sample SPEC]\n"
                "  [--checkpoint-dir PATH]\n"
                "  [--keep-going|--abort-on-failure]\n"
                "  [--json PATH] [--json-payload PATH] [--csv PATH]\n"
                "  [--cache-dir PATH] [--no-cache] [--quiet]\n"
                "  [--jobs-dir DIR [--orchestrate-only]\n"
                "   [--lease-timeout SEC]]\n"
                "       eve_sweep --worker --jobs-dir DIR\n"
                "  [--lease-timeout SEC] [--checkpoint-dir PATH]\n"
                "  [--quiet]\n"
                "       eve_sweep --status --jobs-dir DIR\n"
                "       eve_sweep --stop --jobs-dir DIR\n"
                "\n"
                "--pf turns O3EVE into one O3+EVE-N system per\n"
                "factor; the other systems have none.\n"
                "--sample runs interval sampling (extrapolated\n"
                "cycles, keyed separately from exact results);\n"
                "--checkpoint-dir reuses functional fast-forward\n"
                "state across sampled jobs.\n"
                "--parity checks result fingerprints against a golden\n"
                "file; --update-parity writes one. Both simulate every\n"
                "job fresh and ignore the result cache and --jobs-dir,\n"
                "whose records may come from an older binary.\n"
                "--workloads defaults to the paper's seven kernels;\n"
                "extension kernels (axpy, blackscholes,\n"
                "streamcluster, particlefilter, spmv, fir, scan) are\n"
                "available by name — see docs/WORKLOADS.md.\n"
                "--lease-timeout is how long a claim may stay\n"
                "unchanged before another process takes the job over\n"
                "(default 60 s; heartbeat and poll derive from it).\n"
                "Concurrent sweeps may share one --cache-dir; see\n"
                "docs/OPERATIONS.md.\n");
            return 0;
        } else {
            fatal("unknown flag '%s' (try --help)", flag.c_str());
        }
    }

    if (small && paper)
        fatal("--small and --paper are mutually exclusive");
    const std::string scale =
        paper ? "paper" : (small ? "small" : "full");

    SamplingConfig sampling;
    if (!sample_spec.empty() &&
        !parseSamplingFlag(sample_spec, sampling))
        fatal("--sample: bad spec '%s' (want \"default\", "
              "\"INTERVAL[,WARMUP[,STRIDE]]\", or "
              "\"interval=N;warmup=N;stride=N\")",
              sample_spec.c_str());
    const bool parity_run =
        !parity_path.empty() || !update_parity_path.empty();
    if (sampling.enabled() && parity_run)
        fatal("--sample cannot be combined with --parity or "
              "--update-parity: parity goldens record exact timing "
              "fingerprints");
    // Workers restore/save checkpoints for the sampled jobs they
    // claim; the flag rides DistOptions either way.
    dist.checkpoint_dir = opts.checkpoint_dir;

    // ---- distributed utility modes (no sweep construction) ----
    if (mode == Mode::Status) {
        if (dist.jobs_dir.empty())
            fatal("--status needs --jobs-dir (or $EVE_EXP_JOBS_DIR)");
        const exp::JobsDir jd(dist);
        const exp::DistStatus s = jd.status();
        std::printf("%s\n", exp::formatDistStatus(s).c_str());
        std::printf("binary %s, simulator salt %s\n", kEveVersion,
                    exp::kSimulatorSalt);
        if (s.failed > 0) {
            std::printf("ATTENTION: %zu job(s) failed or were "
                        "abandoned — inspect %s/failed\n",
                        s.failed, dist.jobs_dir.c_str());
            return 2;
        }
        return s.complete() ? 0 : 1;
    }
    if (mode == Mode::Stop) {
        if (dist.jobs_dir.empty())
            fatal("--stop needs --jobs-dir (or $EVE_EXP_JOBS_DIR)");
        exp::JobsDir jd(dist);
        jd.requestStop();
        std::printf("stop requested in %s\n", dist.jobs_dir.c_str());
        return 0;
    }
    if (mode == Mode::Worker) {
        if (dist.jobs_dir.empty())
            fatal("--worker needs --jobs-dir (or $EVE_EXP_JOBS_DIR)");
        std::signal(SIGINT, workerSignalHandler);
        std::signal(SIGTERM, workerSignalHandler);
        if (!quiet) {
            dist.progress = [](const exp::JobResult& r,
                               std::size_t done, std::size_t) {
                std::fprintf(stderr, "[worker:%zu] %-40s %s (%.2fs)\n",
                             done, r.label.c_str(),
                             exp::jobStatusName(r.status),
                             r.wall_seconds);
            };
        }
        const exp::WorkerReport report = exp::runDistWorker(dist);
        if (!quiet)
            std::fprintf(stderr,
                         "worker: %zu executed, %zu refused%s%s\n",
                         report.executed, report.unrebuildable,
                         report.stopped ? " (stopped)" : "",
                         report.joined ? "" : " (never joined)");
        return report.joined ? 0 : 1;
    }

    // ---- sweep construction (in-process or orchestrated) ----
    exp::ParityFile golden;
    if (!parity_path.empty())
        golden = exp::ParityFile::load(parity_path);
    // Parity simulates fresh: a cached or jobs-directory record may
    // come from an older binary under the same salt.
    if (parity_run) {
        if (!quiet && ((!cache_dir.empty() && !no_cache) ||
                       !dist.jobs_dir.empty()))
            std::fprintf(stderr, "parity: simulating every job fresh "
                                 "(result cache and jobs dir "
                                 "ignored)\n");
        no_cache = true;
        dist.jobs_dir.clear();
    }

    exp::SweepSpec spec;
    std::vector<SystemConfig> configs;
    std::string unknown;
    if (!exp::namedSystems(systems, pfs, configs, unknown))
        fatal("unknown system kind '%s' (want IO, O3, O3IV, O3DV, or "
              "O3EVE)", unknown.c_str());
    spec.systems(configs);
    if (!llc_mshrs.empty())
        spec.axis<unsigned>("llc_mshrs", llc_mshrs,
                            [](SystemConfig& c, unsigned v) {
                                c.llc_mshrs = v;
                            });
    if (!l2_mshrs.empty())
        spec.axis<unsigned>("l2_mshrs", l2_mshrs,
                            [](SystemConfig& c, unsigned v) {
                                c.l2_mshrs = v;
                            });
    if (!dtus.empty())
        spec.axis<unsigned>("dtus", dtus,
                            [](SystemConfig& c, unsigned v) {
                                c.dtus = v;
                            });
    if (!prefetch.empty())
        spec.axis<unsigned>("prefetch", prefetch,
                            [](SystemConfig& c, unsigned v) {
                                c.llc_prefetch_lines = v;
                            });
    spec.workloads(workloads, scale);
    spec.sampling(sampling);

    if (!quiet) {
        opts.progress = [](const exp::JobResult& r, std::size_t done,
                           std::size_t total) {
            std::fprintf(stderr, "[%zu/%zu] %-40s %s (%.2fs)\n", done,
                         total, r.label.c_str(),
                         exp::jobStatusName(r.status),
                         r.wall_seconds);
        };
    }

    std::unique_ptr<exp::ResultCache> cache;
    if (!cache_dir.empty() && !no_cache) {
        cache = std::make_unique<exp::ResultCache>(cache_dir);
        const std::size_t loaded = cache->load();
        if (!quiet)
            std::fprintf(stderr, "cache: %zu entries in %s\n", loaded,
                         cache->filePath().c_str());
        opts.cache = cache.get();
    }

    const auto jobs = spec.jobs();
    std::vector<exp::JobResult> results;
    if (!dist.jobs_dir.empty()) {
        dist.lanes = orchestrate_only
                         ? 0
                         : (opts.threads
                                ? opts.threads
                                : std::thread::hardware_concurrency());
        dist.progress = opts.progress;
        if (!quiet)
            std::fprintf(stderr,
                         "%zu jobs via %s (%u local lanes)\n",
                         jobs.size(), dist.jobs_dir.c_str(),
                         dist.lanes);
        results = exp::runDistributed(jobs, dist, opts.cache);
    } else {
        const exp::Runner runner(opts);
        if (!quiet)
            std::fprintf(stderr, "%zu jobs on %u threads\n",
                         jobs.size(),
                         runner.effectiveThreads(jobs.size()));
        results = runner.run(jobs);
    }

    TextTable table({"job", "status", "cycles", "sim s", "wall s"});
    for (const auto& r : results) {
        table.addRow({r.label, exp::jobStatusName(r.status),
                      TextTable::num(r.result.cycles, 0),
                      TextTable::num(r.result.seconds, 6),
                      TextTable::num(r.wall_seconds, 2)});
    }
    std::printf("%s", table.render().c_str());

    if (!json_path.empty())
        exp::writeJsonLines(results, json_path);
    if (!payload_path.empty())
        exp::writeJsonLines(results, payload_path,
                            /*include_host_time=*/false);
    if (!csv_path.empty())
        exp::writeCsv(results, csv_path);

    if (cache && !quiet) {
        std::fprintf(stderr,
                     "cache: %zu hits, %zu executed, %zu stored\n",
                     exp::countStatus(results, exp::JobStatus::Cached),
                     results.size() -
                         exp::countStatus(results,
                                          exp::JobStatus::Cached),
                     cache->stores());
    }

    if (!update_parity_path.empty()) {
        const std::size_t ok =
            exp::countStatus(results, exp::JobStatus::Ok);
        if (ok != results.size())
            fatal("--update-parity: %zu of %zu jobs did not run Ok; "
                  "%s not written",
                  results.size() - ok, results.size(),
                  update_parity_path.c_str());
        const exp::ParityFile fresh =
            exp::ParityFile::fromResults(results, scale);
        fresh.save(update_parity_path);
        std::printf("timing parity: %zu grid points written to %s\n",
                    fresh.size(), update_parity_path.c_str());
    }
    if (!parity_path.empty()) {
        const auto diffs = golden.check(results, scale);
        if (!diffs.empty()) {
            for (const auto& d : diffs)
                std::fprintf(stderr, "parity: %s\n", d.c_str());
            fatal("timing parity violated: %zu grid points diverge "
                  "from %s",
                  diffs.size(), parity_path.c_str());
        }
        std::printf("timing parity: %zu grid points byte-identical "
                    "to %s\n",
                    results.size(), parity_path.c_str());
    }

    const std::size_t failed =
        exp::countStatus(results, exp::JobStatus::Failed) +
        exp::countStatus(results, exp::JobStatus::Mismatch) +
        exp::countStatus(results, exp::JobStatus::Skipped);
    return failed ? 1 : 0;
}
