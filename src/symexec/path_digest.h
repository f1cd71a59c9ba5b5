// Verify-time path digests for runtime conformance attestation.
//
// At deploy time the controller symbolically executes the tenant's module
// once (ExploreModule, src/symexec/click_models.h); this header turns that
// same exploration into a compact IntPathDigest: the hash set of every complete
// delivered element chain plus the hash set of every prefix of every path
// (delivered or dropped). The runtime side (src/obs/int_telemetry.h) checks
// sampled packets' in-band hop stacks against these sets — a delivered
// packet must match a full verified path exactly, a dropped packet must have
// followed a verified path up to its drop point.
//
// Canonicalization MUST match the runtime exactly: source/sink adapters and
// Discard (click::IsEndpointClass) are excluded from chains on both sides,
// and element names are the module's own (the consolidator's "t<i>_"
// prefixes are stripped at collection time).
#ifndef SRC_SYMEXEC_PATH_DIGEST_H_
#define SRC_SYMEXEC_PATH_DIGEST_H_

#include <string>

#include "src/click/config_parser.h"
#include "src/obs/int_telemetry.h"
#include "src/symexec/click_models.h"

namespace innet::symexec {

// Folds the paths of `exploration` (ExploreModule(config)) into a digest.
// `truncated` is set when the engine hit its exploration budget (attestation
// is then skipped at runtime rather than risking false violations).
obs::IntPathDigest ComputePathDigest(const click::ConfigGraph& config,
                                     const ModuleExploration& exploration);

// Explores `config` and digests the result; an empty digest when the runtime
// could not build it either (an unknown class, a malformed element
// configuration or a port out of range).
obs::IntPathDigest ComputePathDigest(const click::ConfigGraph& config);

// Convenience overload from raw Click text; empty digest when unparseable.
obs::IntPathDigest ComputePathDigestFromText(const std::string& config_text);

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_PATH_DIGEST_H_
