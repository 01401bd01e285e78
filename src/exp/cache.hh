/**
 * @file
 * Content-hash result cache for resumable sweeps.
 *
 * Every Job has a stable content key: a 64-bit FNV-1a hash over the
 * canonicalized SystemConfig (configCanonical — every field, in
 * declaration order), the workload name, the input-scale tag, a
 * simulator-version salt, and — only for custom-executor jobs — a
 * variant tag (Job::variant). The ResultCache maps keys to previously
 * recorded JSONL result records; the Runner consults it before
 * executing a job and stores fresh Ok results after the run, so a
 * resumed or incrementally edited sweep re-runs only the grid points
 * whose content actually changed.
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
 * On-disk format: one line per entry in <dir>/cache.jsonl,
 *
 *   {"key":"<16 hex digits>","record":{<resultToJson output>}}
 *
 * The file is append-only; on load, later entries win. Unparseable
 * lines are skipped with a warning (a truncated final line from a
 * killed run must not poison the rest of the cache). Appends are
 * serialized across processes by an flock(2) on <dir>/cache.lock, so
 * several processes may safely share one cache directory.
 */

#ifndef EVE_EXP_CACHE_HH
#define EVE_EXP_CACHE_HH

#include <cstddef>
#include <string>
#include <unordered_map>

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
 * of the serializer, field for field; the config itself is not part
 * of the record, so @p out.config is left untouched). Returns false
 * on malformed input without modifying @p out.
 */
bool parseResultJson(const std::string& json, JobResult& out);

/**
 * Durable key -> record store under one directory. Not thread-safe;
 * the Runner loads before and stores after its parallel section.
 * Several instances — in one process or many — may share a
 * directory: appends are flock-serialized, and each instance sees
 * the others' entries on its next load().
 */
class ResultCache
{
  public:
    /** Binds to @p dir (created on first store) under @p salt. */
    explicit ResultCache(std::string dir,
                         std::string salt = kSimulatorSalt);

    /**
     * Read <dir>/cache.jsonl into memory; a missing file is an empty
     * cache, not an error. Returns the number of entries loaded.
     */
    std::size_t load();

    /**
     * If @p job's key has a stored record, restore it into @p out:
     * payload fields from the record, identity (index, label, config,
     * axes) from @p job, status JobStatus::Cached. Returns true on a
     * hit; on a miss or an unparseable record, @p out keeps only the
     * job identity and false is returned.
     */
    bool lookup(const Job& job, JobResult& out) const;

    /**
     * Persist @p r under @p job's key if it is cache-eligible and the
     * key is not already stored (appends to cache.jsonl).
     */
    void store(const Job& job, const JobResult& r);

    /** Only verified-Ok runs may enter the cache. */
    static bool eligible(const JobResult& r)
    {
        return r.status == JobStatus::Ok;
    }

    /** Entries currently in memory. */
    std::size_t size() const { return entries.size(); }

    /** Entries appended by store() since construction. */
    std::size_t stores() const { return stored_count; }

    /** "<dir>/cache.jsonl". */
    std::string filePath() const;

    const std::string& directory() const { return dir; }
    const std::string& saltString() const { return salt; }

  private:
    std::string dir;
    std::string salt;
    std::size_t stored_count = 0;
    std::unordered_map<std::string, std::string> entries;
};

} // namespace eve::exp

#endif // EVE_EXP_CACHE_HH
