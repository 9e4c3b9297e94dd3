#!/bin/sh
# Flight-recorder and trace smoke test (make flight-trace-smoke, CI
# "flight-trace" job).
#
# Checks the crash and trace outputs end to end:
#   1. A forced watchdog trip (-watchdog 50) fails the run AND leaves a
#      non-empty flight-recorder JSONL dump whose path is in the error.
#   2. A Hybrid run tripped late (-watchdog 200) dumps a wrapped ring of
#      the six kinds a core records, whose runahead records keep their
#      fields.
#   3. `runahead-sim -trace-format chrome` writes a non-empty JSON document
#      with a traceEvents array, and `-trace-format jsonl` writes non-empty
#      output whose every line is a JSON object.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build"
go build -o "$tmp/sim" ./cmd/runahead-sim

echo "== forced watchdog trip dumps the flight recorder"
if "$tmp/sim" -bench mcf -uops 50000 -watchdog 50 \
    -flight-dump "$tmp/flight" >/dev/null 2>"$tmp/trip.log"; then
    echo "FAIL: watchdog run unexpectedly succeeded"
    exit 1
fi
grep -q "watchdog" "$tmp/trip.log"
grep -q "flight recorder dumped to" "$tmp/trip.log"
dump="$tmp/flight/flight-mcf-Base.jsonl"
[ -s "$dump" ] || { echo "FAIL: flight dump missing or empty"; exit 1; }
grep -q '"kind":"mark"' "$dump"
echo "   dump ok: $(wc -l <"$dump") events in ${dump##*/}"

echo "== a wrapped Hybrid ring keeps every recorded kind"
if "$tmp/sim" -bench mcf -system Hybrid -uops 50000 -watchdog 200 \
    -flight-dump "$tmp/flight-hybrid" >/dev/null 2>"$tmp/trip-hybrid.log"; then
    echo "FAIL: Hybrid watchdog run unexpectedly succeeded"
    exit 1
fi
python3 -c '
import json, sys
kinds = ["sample", "runahead-enter", "runahead-exit", "llc-miss", "dram", "mark"]
seen = dict.fromkeys(kinds, 0)
for line in open(sys.argv[1]):
    ev = json.loads(line)
    assert ev["kind"] in seen, line
    seen[ev["kind"]] += 1
    if ev["kind"] == "runahead-enter":
        assert "mode" in ev and "chain" in ev, line
    if ev["kind"] == "runahead-exit":
        assert "misses" in ev, line
n = sum(seen.values())
assert n == 512, "dump has %d lines, want a wrapped 512-event ring" % n
assert all(seen.values()), "a kind is missing: %s" % seen
print("   dump ok: %s" % " ".join("%d %s" % (seen[k], k) for k in kinds))
' "$tmp/flight-hybrid/flight-mcf-Hybrid.jsonl"

echo "== trace formats"
"$tmp/sim" -bench mcf -system Hybrid -trace 3000 -trace-format chrome -trace-out "$tmp/trace.json"
[ -s "$tmp/trace.json" ] || { echo "FAIL: chrome trace missing or empty"; exit 1; }
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
ev = doc["traceEvents"]
assert ev, "no trace events"
print("   chrome ok: %d events" % len(ev))
' "$tmp/trace.json"
"$tmp/sim" -bench mcf -system Hybrid -trace 3000 -trace-format jsonl -trace-out "$tmp/trace.jsonl"
[ -s "$tmp/trace.jsonl" ] || { echo "FAIL: jsonl trace missing or empty"; exit 1; }
python3 -c '
import json, sys
n = 0
for line in open(sys.argv[1]):
    assert isinstance(json.loads(line), dict), line
    n += 1
print("   jsonl ok: %d events" % n)
' "$tmp/trace.jsonl"

echo "flight and trace smoke: PASS"
