/**
 * @file
 * Content-hash result cache for resumable sweeps, and the one
 * on-disk form of a result record.
 *
 * Every Job has a stable content key: a 64-bit FNV-1a hash over the
 * canonicalized SystemConfig (configCanonical — every field, in
 * declaration order), the workload name, the input-scale tag, a
 * simulator-version salt, and — only for custom-executor jobs — a
 * variant tag (Job::variant). The ResultCache maps keys to previously
 * recorded result records; the Runner consults it before executing a
 * job and stores fresh Ok results after the run, so a resumed or
 * incrementally edited sweep re-runs only the grid points whose
 * content actually changed.
 *
 * Invalidation is purely key-based — there is no mutable metadata:
 *  - editing any SystemConfig field changes configCanonical and
 *    therefore the key (adding a *new* field to SystemConfig changes
 *    every key, wholesale invalidation by construction);
 *  - bumping kSimulatorSalt orphans every existing entry (bump it
 *    whenever a timing-model change shifts simulated numbers);
 *  - Mismatch/Failed/Skipped results are never stored, so a cache
 *    can only ever replay verified-Ok simulations.
 *
 * Determinism guarantee: a cold run and a fully-cached rerun emit
 * byte-identical JSONL. The cache stores the full resultToJson record
 * (including the original host wall-clock time); lookup parses it
 * back with parseResultJson, and because jsonNumber's rendering
 * round-trips exactly through strtod, re-serializing the restored
 * JobResult reproduces the original bytes.
 *
 * On-disk format: one record file per key, <dir>/<KEY>.json, holding
 * the resultToJson text and a newline — the layout the job-file
 * protocol uses for done/KEY.json (exp/dist.hh), written and read
 * through the same writeRecordFile()/readRecordFile() pair. A record
 * file is written whole by fsync-and-rename, so a reader sees either
 * no file or a complete one; a missing or unparseable file is a miss,
 * and the next store replaces it. Several processes may share one
 * cache directory without a lock: concurrent stores of one key each
 * rename a complete file, and every record for a key carries the same
 * simulated payload. The cache is an accelerator only: a cache.jsonl
 * journal from older versions is not read, and deleting the directory
 * loses nothing but time.
 */

#ifndef EVE_EXP_CACHE_HH
#define EVE_EXP_CACHE_HH

#include <cstddef>
#include <string>

#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace eve::exp
{

/**
 * Simulator-version salt mixed into every job key. Bump the suffix
 * whenever a change to the timing model alters simulated results
 * (e.g. the v2 bump: stale in-flight-fill state fixes in mem/cache).
 */
inline constexpr const char* kSimulatorSalt = "eve-sim-v2";

/** The exact byte string hashed into a job's key (for diagnostics). */
std::string jobKeyMaterial(const Job& job, const std::string& salt);

/** 16-hex-digit content key of @p job under @p salt. */
std::string jobKey(const Job& job,
                   const std::string& salt = kSimulatorSalt);

/**
 * Parse one resultToJson() record back into a JobResult (the inverse
 * of the serializer, field for field; the config is not part of the
 * record, so @p out.config comes back default). A record must
 * have string "system", "workload" and "status" fields; every count
 * (index, instrs, ...) must be an integer in [0, 2^64) and every
 * other number finite. Returns false on anything else without
 * modifying @p out: the records come from files other processes
 * write.
 */
bool parseResultJson(const std::string& json, JobResult& out);

/**
 * Write @p r's resultToJson record (host time included) to @p path
 * whole, by fsync-and-rename (fatal on I/O error).
 */
void writeRecordFile(const std::string& path, const JobResult& r);

/**
 * Read and parse the record file at @p path; false when it is
 * missing or unparseable, leaving @p out untouched.
 */
bool readRecordFile(const std::string& path, JobResult& out);

/**
 * Durable key -> record store under one directory: <dir>/<KEY>.json.
 * Holds no state beyond its store count, so any number of instances,
 * in one process or many, may share a directory and see each other's
 * records at once.
 */
class ResultCache
{
  public:
    /** Binds to @p dir (created on first store) under @p salt. */
    explicit ResultCache(std::string dir,
                         std::string salt = kSimulatorSalt);

    /**
     * If @p job's key has a stored Ok record, restore it into @p out:
     * payload fields from the record, identity (index, label, config,
     * axes) from @p job, status JobStatus::Cached. Returns true on a
     * hit; on a miss or an unparseable record, @p out keeps only the
     * job identity and false is returned.
     */
    bool lookup(const Job& job, JobResult& out) const;

    /**
     * Persist @p r under @p job's key if it is cache-eligible and the
     * key holds no parseable Ok record yet.
     */
    void store(const Job& job, const JobResult& r);

    /** Only verified-Ok runs may enter the cache. */
    static bool eligible(const JobResult& r)
    {
        return r.status == JobStatus::Ok;
    }

    /** Records written by store() since construction. */
    std::size_t stores() const { return stored_count; }

    /** "<dir>/<KEY>.json" for @p job's key. */
    std::string recordPath(const Job& job) const;

    const std::string& directory() const { return dir; }

  private:
    std::string dir;
    std::string salt;
    std::size_t stored_count = 0;
};

} // namespace eve::exp

#endif // EVE_EXP_CACHE_HH
