#!/usr/bin/env bash
# Lint: every metric name registered anywhere in src/, tools/, or bench/ must
# be documented in DESIGN.md (§8 Observability). Metric names are string
# literals matching "innet_[a-z0-9_]+" passed to GetCounter/GetGauge/
# GetHistogram; grepping for the quoted literal keeps identifiers like
# innet_run out of the net.
#
# The same applies to trace event wire names: every EventKind name returned
# by EventKindName() in src/obs/trace.cc must appear in DESIGN.md, so the
# trace dump format stays documented.
#
# Finally, every EventKind enumerator declared in src/obs/trace.h must map to
# a wire name in EventKindName(): an unmapped kind serializes as "unknown",
# which would silently corrupt trace dumps and flight-recorder postmortem
# bundles (both reuse the same wire names).
#
# Both directions are linted: code→docs (a registered metric missing from
# DESIGN.md) above, and docs→code (a documented `innet_*` metric no longer
# registered anywhere — a stale row that would send an operator hunting for a
# counter that does not exist) below.
set -u
cd "$(dirname "$0")/.."

missing=0
while IFS= read -r name; do
  if ! grep -q "$name" DESIGN.md; then
    echo "ERROR: metric $name is registered in code but not documented in DESIGN.md" >&2
    missing=1
  fi
done < <(grep -rhoE '"innet_[a-z0-9_]+"' src tools bench | tr -d '"' | sort -u)

# Reverse direction: every backticked innet_* name DESIGN.md documents as a
# metric must still be registered in code. Tool binaries share the prefix, so
# they are allowlisted by name.
tool_names='^innet_(run|top|check)$'
while IFS= read -r name; do
  if echo "$name" | grep -qE "$tool_names"; then
    continue
  fi
  if ! grep -rqF "\"$name\"" src tools bench; then
    echo "ERROR: metric $name is documented in DESIGN.md but registered nowhere in code" >&2
    missing=1
  fi
done < <(grep -ohE '`innet_[a-z0-9_]+' DESIGN.md | tr -d '\`' | sort -u)

while IFS= read -r kind; do
  if ! grep -q "\`$kind\`" DESIGN.md; then
    echo "ERROR: trace event kind $kind is emitted by the tracer but not documented in DESIGN.md" >&2
    missing=1
  fi
done < <(grep -hoE 'return "[a-z0-9_]+"' src/obs/trace.cc | sed 's/return "\(.*\)"/\1/' \
         | grep -v '^unknown$' | sort -u)

# Every EventKind enumerator must have a case in EventKindName() — the wire
# names themselves are already checked against DESIGN.md above; this catches
# a newly added kind that would fall through to "unknown".
while IFS= read -r enumerator; do
  if ! grep -q "EventKind::$enumerator:" src/obs/trace.cc; then
    echo "ERROR: EventKind::$enumerator has no wire name case in EventKindName()" >&2
    missing=1
  fi
done < <(sed -n '/enum class EventKind/,/};/p' src/obs/trace.h \
         | grep -oE 'k[A-Z][A-Za-z0-9]*' | sort -u)

if [ "$missing" -ne 0 ]; then
  echo "check_metrics_docs: FAILED — add the metrics/event kinds above to DESIGN.md §8" >&2
  exit 1
fi
echo "check_metrics_docs: all registered metrics and trace event kinds are documented"
