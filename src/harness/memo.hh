/**
 * @file
 * Memo of finished experiments: a directory with one file per result,
 * so re-running a grid replays what an earlier run already simulated
 * (SweepOptions --memo=DIR; see SweepRunner::runPlanned).
 *
 * A result is encoded as a fixed little-endian byte layout (not a host
 * struct dump) that round-trips every ExperimentResult field the
 * figures and BENCH reports read: the labels, cycle counts, per-node
 * finish times, the verification flag, the host seconds measured when
 * the experiment originally ran, and the full metrics snapshot (which
 * carries the time.* buckets). decode(encode(r)) equals r in every
 * field but sequentialCycles, which the runner stamps from the app's
 * baseline entry exactly as it does for a fresh run, and trace, which
 * a replay does not have.
 *
 * Layout (u32/u64/f64 little-endian; str = u32 length + raw bytes):
 *
 *   result: u32 magic 'SWR2', str workload, str config, str protocol,
 *           u64 parallelCycles, u8 verified, f64 hostSeconds,
 *           u64 totalCycles, u32 nProcs x u64 finishTime,
 *           u32 nCounters x { str name, u64 value },
 *           u32 nGauges   x { str name, f64 value },
 *           u32 nHistograms x { str name, u64 total,
 *                               u32 nBuckets x u64 count }
 *   baseline: u32 magic 'SWB1', u64 cycles
 *
 * The magic is the layout version: change the layout and the magic
 * with it, so entries of the old layout read as misses instead of
 * misdecoding.
 *
 * An entry file holds the blob followed by the blob's u64 FNV-1a
 * checksum. store() writes a unique temporary file in the entry's
 * directory and renames it over the entry, so a reader sees a whole
 * old entry or a whole new one, never a torn mix from a concurrent
 * writer; load() reads a missing, short or checksum-failing file as a
 * miss, which the runner recomputes and overwrites. The checksum, not
 * an fsync, is what covers a crash mid-write.
 *
 * Keys name an experiment's parameters, not the simulator build that
 * produced the entry: after a modelling change, use a fresh directory.
 */

#ifndef SWSM_HARNESS_MEMO_HH
#define SWSM_HARNESS_MEMO_HH

#include <string>
#include <string_view>

#include "harness/experiment.hh"

namespace swsm::memo
{

std::string encodeResult(const ExperimentResult &r);
/** @return false (out untouched) on a malformed or old-layout blob */
bool decodeResult(std::string_view blob, ExperimentResult &out);

std::string encodeBaseline(Cycles seq);
/** @return false (out untouched) on a malformed blob */
bool decodeBaseline(std::string_view blob, Cycles &out);

/**
 * Read entry @p key ("small/p16/fft/hlrc/AO") of memo directory @p dir
 * into @p blob.
 * @return false, a miss, when the file is missing, short or fails its
 *         checksum
 */
bool load(const std::string &dir, const std::string &key,
          std::string &blob);

/**
 * Write @p blob as entry @p key of @p dir, creating the key's
 * subdirectories, by rename from a temporary file in the same
 * directory.
 * @return false (with a warning) when the entry cannot be written
 */
bool store(const std::string &dir, const std::string &key,
           std::string_view blob);

} // namespace swsm::memo

#endif // SWSM_HARNESS_MEMO_HH
