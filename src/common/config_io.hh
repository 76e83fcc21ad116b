/**
 * @file
 * Configuration file support, mirroring the artifact's
 * `-ConfigFile=` workflow: a simple `key = value` format (one per
 * line, `#` comments) that overrides the Table I defaults.
 *
 * Recognised keys (dotted sections):
 *
 *   pcm.capacity_gb, pcm.read_latency, pcm.write_latency,
 *   pcm.read_energy_pj, pcm.write_energy_pj, pcm.channels,
 *   pcm.ranks, pcm.banks, pcm.write_queue_depth,
 *   pcm.row_buffer_lines, pcm.row_hit_read_latency, pcm.read_priority
 *   cache.l1_kb, cache.l2_kb, cache.l3_kb,
 *   cache.l1_assoc, cache.l2_assoc, cache.l3_assoc
 *   crypto.sha1_latency, crypto.md5_latency, crypto.crc_latency,
 *   crypto.encrypt_latency, crypto.compare_latency
 *   metadata.efit_kb, metadata.amt_kb, metadata.refer_h_max,
 *   metadata.decay_period, metadata.decay_delta, metadata.use_lrcu
 *   core.clock_ghz, core.base_cpi
 *   seed
 *
 * Integers are decimal, or hex with a 0x prefix (a leading 0 is not
 * octal, matching the command line).
 */

#ifndef ESD_COMMON_CONFIG_IO_HH
#define ESD_COMMON_CONFIG_IO_HH

#include <string>

#include "common/config.hh"

namespace esd
{

/** Apply one `key = value` assignment to @p cfg.
 *  @return false (with no change) when the key is unknown. */
bool applyConfigKey(SimConfig &cfg, const std::string &key,
                    const std::string &value);

/** Parse @p path over the defaults in @p cfg; fatal on I/O or syntax
 * errors, warns on unknown keys. */
void loadConfigFile(SimConfig &cfg, const std::string &path);

/** Render @p cfg in the same key=value format (round-trippable). */
std::string renderConfig(const SimConfig &cfg);

/** Config-file spelling of an ECC engine ("hamming"/"bch"/"rs"). */
const char *eccEngineName(EccEngineKind k);

/** Parse an ECC engine name; fatal on anything else. */
EccEngineKind parseEccEngine(const std::string &key, const std::string &v);

/** Config-file spelling of a persistence domain ("adr"/"eadr"). */
const char *persistDomainName(PersistDomain d);

/** Config-file spelling of a crash phase ("pre_barrier"/...). */
const char *crashPhaseName(CrashPhase p);

/** Parse a persistence domain name; fatal on anything else. */
PersistDomain parsePersistDomain(const std::string &key,
                                 const std::string &v);

/** Parse a crash-phase name; fatal on anything else. */
CrashPhase parseCrashPhase(const std::string &key, const std::string &v);

/** Config-file spelling of a trace format ("auto"/"text"/...). */
const char *traceFormatName(TraceFormat f);

/** Parse a trace-format name; fatal on anything else. */
TraceFormat parseTraceFormat(const std::string &key,
                             const std::string &v);

} // namespace esd

#endif // ESD_COMMON_CONFIG_IO_HH
