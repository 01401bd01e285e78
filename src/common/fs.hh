/**
 * @file
 * Filesystem primitives for crash-safe artifact and protocol files.
 *
 * Everything durable the experiment stack writes goes through
 * atomicWriteFile(): the content lands in a same-directory temp file
 * (`<path>.<pid>.<n>.tmp`, a fresh name for every write), is
 * fsync'd, and is rename(2)'d over the target, so a reader can never
 * observe a torn or partial file — it sees either the old bytes or
 * the new bytes. That is all the result cache needs to be shared
 * without a lock: each of its records is one file, written whole. The
 * distributed sweep protocol additionally leans on one POSIX
 * guarantee: open(2) with O_CREAT|O_EXCL creates a file in exactly
 * one of the processes racing to create it (the others get EEXIST) —
 * this is the job-claim primitive.
 */

#ifndef EVE_COMMON_FS_HH
#define EVE_COMMON_FS_HH

#include <string>

namespace eve
{

/**
 * Write @p content to `<path>.<pid>.<n>.tmp` in the target's
 * directory (n counts this process's writes, so concurrent writers of
 * one path never share a temp file), fsync it, and atomically rename it over @p path (fsyncing the
 * directory afterwards). Returns false with @p err set on any I/O
 * failure; the temp file is removed on failure when possible.
 */
bool tryAtomicWriteFile(const std::string& path,
                        const std::string& content, std::string* err);

/** tryAtomicWriteFile() or die (fatal) with the I/O error. */
void atomicWriteFile(const std::string& path,
                     const std::string& content);

/**
 * The temp-file suffix tryAtomicWriteFile() uses. A `*.tmp` file left
 * behind is the signature of a writer that died mid-write; every
 * reader ignores such files, and nothing removes them automatically.
 */
inline constexpr const char* kTmpSuffix = ".tmp";

/**
 * rename(2) @p from over @p to. Returns true if *this caller's*
 * rename succeeded. ENOENT (another process moved the source first)
 * is a quiet false; any other failure warns.
 */
bool renameFile(const std::string& from, const std::string& to);

/**
 * Create @p path with open(2) O_CREAT|O_EXCL and write @p content
 * into it. Returns true only for the one caller that created the
 * file: EEXIST (another caller won) is a quiet false, and any other
 * failure warns.
 */
bool createExclusive(const std::string& path,
                     const std::string& content);

/** Remove a file; missing files are fine. */
void removeFile(const std::string& path);

/** True if @p path exists (any file type). */
bool fileExists(const std::string& path);

/** Whole-file read; returns false on any error. */
bool readFile(const std::string& path, std::string& out);

/** mkdir -p; fatal on failure. */
void makeDirs(const std::string& dir);

} // namespace eve

#endif // EVE_COMMON_FS_HH
