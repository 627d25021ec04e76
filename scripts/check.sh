#!/usr/bin/env bash
# The single local CI entrypoint: formatting, vet, build, the repo's own
# static-analysis suite (cmd/dataailint), and the full test suite under
# the race detector. ROADMAP.md's tier-1 line points here; a clean run of
# this script is the definition of "no worse than the seed".
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== dataailint ./..."
go run ./cmd/dataailint ./...

echo "== dataailint -sarif (well-formed machine output)"
# A clean run still emits the full rule table; a SARIF consumer can see
# what was checked. grep pins the envelope, the unit tests pin the rest.
go run ./cmd/dataailint -sarif ./... > /tmp/dataai_lint.sarif
grep -q '"name": "dataailint"' /tmp/dataai_lint.sarif
grep -q 'sarif-2.1.0' /tmp/dataai_lint.sarif
rm -f /tmp/dataai_lint.sarif

echo "== dataailint -fix idempotence (no edits on a clean tree)"
# -fix on a tree with no findings must not touch a single byte; if it
# does, either the suite is not clean or the fix engine is not
# convergent. Either way the diff fails the gate.
go run ./cmd/dataailint -fix ./...
git diff --exit-code

echo "== go test -race ./..."
go test -race ./...

echo "== resilience stress under race (repeated runs)"
# The fault injector, resilient middleware, and single-flight cache are
# the repo's most mutex-dense code; hammer them a few extra times under
# the race detector so scheduling-dependent interleavings get more
# chances to surface.
go test -race -count=3 ./internal/faults ./internal/resilient
go test -race -count=3 -run 'SingleFlight|Parallel' ./internal/llm ./internal/semop
# internal/par's helper pool: nested fan-outs, concurrent callers, a
# fan-out its caller finishes while every helper is held, panics in the
# caller's and a helper's share, and helpers parking after their spin,
# under the race detector with many interleavings.
go test -race -count=20 ./internal/par
# vecdb.Flat: concurrent Add/Search/Delete, searches racing the seals of
# Add and Delete, and the sharded scan against the serial one and the
# dense reference scan.
go test -race -count=10 -run 'Flat' ./internal/vecdb
# token.Tokenize against its builder-based oracle on generated strings,
# valid UTF-8 or not, starting from the seed corpus in testdata/fuzz.
go test -run '^$' -fuzz '^FuzzTokenize$' -fuzztime 10s ./internal/token
# obs.WriteChrome renders chunks on several goroutines: the randomized
# and reference comparisons at 1, 2 and 8 workers, and export racing
# concurrent recording.
go test -race -count=10 -run 'WriteChrome|ConcurrentRecord' ./internal/obs
# The serving decode step's oracles: the decode grid's digests (every
# seventh config under -short), the closed-form decode schedule, and
# invalid configurations failing with ErrConfig under a deadline.
go test -race -short -count=1 -run 'TestDecodeGridDigests|TestDecodeClosedForm|TestBadConfigsFailFast' ./internal/serving
# serving.Run over generated cluster configurations (instances, router,
# fault plan, recovery, admission, scheduling, KV mode, chunking, GPU,
# trace), starting from the seed corpus in testdata/fuzz: every request
# resolves once, every instance drains, the traced run passes obs.Check
# and an untraced rerun serves the same results.
go test -run '^$' -fuzz '^FuzzRun$' -fuzztime 10s ./internal/serving
# prep-rag's preparation stages fan out: rag.Ingest cuts and embeds each
# window of documents on several goroutines and commits it in order,
# ApplyFilters runs the filters per document in parallel, and Dedup's
# signature and band passes run on all cores. Their serial-equivalence
# oracles and the closed-form MinHash check, repeated under the race
# detector.
go test -race -count=10 -run 'Ingest|ApplyFilters|Dedup|Signature' ./internal/rag ./internal/dataprep

echo "== servesim smoke (routed cluster end-to-end)"
# One routed run with faults exercises the whole serving stack from the
# CLI: event engine, online router, fault plan, breakers, re-routing.
go build -o /tmp/dataai_servesim ./cmd/servesim
/tmp/dataai_servesim -policy routed -instances 4 -router breaker-aware -faults severe -n 200 -rate 60 > /dev/null

echo "== servesim trace (invariants + serial vs parallel-8 byte-identical)"
# The same severe routed run with -trace -decisions: servesim runs the
# structural invariant checker (internal/obs Check) over the recorded
# timeline — including the decision invariants, since -decisions attaches
# the routing log to the tracer — and refuses to write a malformed trace;
# running it again at -parallel 8 (eight concurrent replicas, each with
# its own decision log, traces compared in-process, replica 0 emitted)
# and diffing the two files pins the observability layer's byte-identical
# determinism contract end to end.
/tmp/dataai_servesim -policy routed -instances 4 -router breaker-aware -faults severe -n 200 -rate 60 \
    -decisions -trace /tmp/dataai_trace_serial.json > /dev/null 2>/dev/null
/tmp/dataai_servesim -policy routed -instances 4 -router breaker-aware -faults severe -n 200 -rate 60 \
    -decisions -trace /tmp/dataai_trace_par.json -parallel 8 > /dev/null 2>/dev/null
diff /tmp/dataai_trace_serial.json /tmp/dataai_trace_par.json
# The decision annotations actually reached the trace: request spans
# carry the decision seq / chosen instance args.
grep -q '"decision":' /tmp/dataai_trace_serial.json
grep -q '"inst":' /tmp/dataai_trace_serial.json
# A trace is non-trivial and well-formed: it opens the Chrome trace-event
# envelope and carries events (full JSON validity is pinned by the unit
# tests in internal/obs and cmd/benchall).
head -c 16 /tmp/dataai_trace_serial.json | grep -q '{"traceEvents"'
rm -f /tmp/dataai_trace_serial.json /tmp/dataai_trace_par.json

echo "== decision replay smoke (counterfactual regret from the CLI)"
# The decision-tracing stack end to end: record every routing decision of
# a severe routed run, replay each forced to its first runner-up at 8
# workers, and print the regret tables. Exact output checks: the replay
# count must equal the decision count (rank-2 forcing only), and the
# regret tables must render.
/tmp/dataai_servesim -policy routed -instances 4 -router breaker-aware -faults severe -n 160 -rate 60 \
    -decisions -counterfactual-k 2 -regret-top 5 -parallel 8 > /tmp/dataai_decisions.txt
grep -q 'decision regret (counterfactual replay' /tmp/dataai_decisions.txt
grep -q 'top 5 decisions by regret' /tmp/dataai_decisions.txt
awk -F'  +' '/decisions \/ replays/ {split($2, a, "/"); if (a[1] != a[2] || a[1]+0 == 0) exit 1}' /tmp/dataai_decisions.txt
rm -f /tmp/dataai_decisions.txt

echo "== admission smoke (token bucket sheds 2x overload; FCFS queues it)"
# The multi-tenant stack from the CLI: at ~2x the cluster's sustainable
# rate, a token-bucket router must turn requests away while the
# no-admission baseline admits everything (and pays in latency). The
# simulator is deterministic, so these are exact counts.
open_rej=$(/tmp/dataai_servesim -policy routed -spec multi-tenant -n 400 -rate 130 \
    | awk -F'  +' '/adm rejected/ {print $2}')
shed_rej=$(/tmp/dataai_servesim -policy routed -spec multi-tenant -n 400 -rate 130 \
    -admission reject -sched priority | awk '/adm rejected/ {split($NF, a, "/"); print a[1]}')
awk -v none="${open_rej:-0}" -v shed="${shed_rej:-0}" 'BEGIN {
    if (none+0 == 0 && shed+0 > 0) exit 0
    printf "admission smoke failed: no-admission rejected %s (want 0), token-bucket rejected %s (want > 0)\n", none, shed
    exit 1
}'

echo "== sim engine smoke (calendar queue beats the reference heap)"
# A 10^5-event clustered program timed against the container/heap
# reference queue; the calendar queue must come out ahead (the full 2x
# acceptance ratio at 10^6 events is recorded in BENCH_sim.json). Skips
# itself under -race, so run it without the detector here.
go test -short -run 'TestCalendarOutperformsHeap' -count=1 ./internal/sim

echo "== recovery smoke (checkpoint + migration beats recompute-from-zero)"
# The crash-survivable stack from the CLI: a correlated-domain severe run
# with checkpoints and migration must strictly beat the same run that
# recovers by re-prefilling from token zero. The simulator is
# deterministic, so this is an exact comparison, not a flaky one.
base_goodput=$(/tmp/dataai_servesim -policy routed -faults severe -domains 4 -n 300 -rate 70 \
    -slo-ttft 1500 -slo-tbt 25 | awk '/goodput/ {print $NF}')
ckpt_goodput=$(/tmp/dataai_servesim -policy routed -faults severe -domains 4 -n 300 -rate 70 \
    -slo-ttft 1500 -slo-tbt 25 -ckpt-every 8 -migrate | awk '/goodput/ {print $NF}')
awk -v a="$ckpt_goodput" -v b="$base_goodput" 'BEGIN {
    if (a+0 > b+0) exit 0
    printf "recovery smoke failed: ckpt+migrate goodput %s <= reroute-only %s\n", a, b
    exit 1
}'

echo "== servesim sweep (grid runner, serial vs parallel-8 byte-identical)"
# The sim.Sweep grid runner from the CLI: 27 router x faults x load
# cells, each on its own engine. Serial and 8-worker runs must print the
# same bytes — the sweep analogue of the benchall golden gate.
/tmp/dataai_servesim -sweep -n 120 > /tmp/dataai_sweep_serial.txt
/tmp/dataai_servesim -sweep -n 120 -parallel 8 > /tmp/dataai_sweep_par.txt
diff /tmp/dataai_sweep_serial.txt /tmp/dataai_sweep_par.txt
rm -f /tmp/dataai_servesim /tmp/dataai_sweep_serial.txt /tmp/dataai_sweep_par.txt

echo "== bench smoke (every Par benchmark runs once)"
go test -run '^$' -bench=Par -benchtime=1x ./...

echo "== prep-rag kernel bench smoke (MinHash signature, dedup and embedding fan-outs run once)"
go test -run '^$' -bench 'MinHashSignature|ParDedup|ParEmbed' -benchtime=1x ./internal/dataprep ./internal/embed

echo "== tracing bench smoke (record, Check and WriteChrome benchmarks run once)"
# Two -cpu values run WriteChrome's serial and two-worker renderings.
go test -run '^$' -bench 'Trace|WriteChrome' -benchtime=1x -cpu 1,2 ./internal/serving

echo "== perfbench smoke (every benchmark workload, traced and untraced, outputs checked)"
# perfbench is its own module, so the root go test ./... never builds
# it; its smoke test runs each workload at small scale with every
# output check the benchmark makes.
(cd perfbench && go test ./...)

echo "== perfbench exact columns (digests, counts and simulated-clock metrics)"
# Every workload at seed 1, untraced and traced: the outputs' digest and
# each column that does not depend on the host or the run length must
# equal the committed file. Wall-clock, allocation and speedup columns
# are not gated. Pinned on amd64 only: other architectures may fuse
# floating-point multiply-adds.
if [ "$(go env GOARCH)" = amd64 ]; then
    bash scripts/exact_columns.sh > /tmp/dataai_exact_columns.txt
    diff scripts/testdata/exact_columns.txt /tmp/dataai_exact_columns.txt
    rm -f /tmp/dataai_exact_columns.txt
fi

echo "== benchall serial vs parallel (fast subset, byte-identical)"
# The full-set golden diff runs inside the test suite
# (cmd/benchall/main_test.go); this end-to-end gate re-checks the built
# binary on a fast experiment subset so a flag-wiring regression cannot
# hide behind the in-process test. On amd64 the serial output must also
# equal those experiments' sections of the committed golden (other
# architectures may fuse floating-point multiply-adds).
subset="E1 E2 E5 E8 E11 E17 E19 E22 E23 E24 E25 E26"
go build -o /tmp/dataai_benchall ./cmd/benchall
/tmp/dataai_benchall $subset > /tmp/dataai_benchall_serial.txt
/tmp/dataai_benchall -parallel 8 $subset > /tmp/dataai_benchall_par.txt
diff /tmp/dataai_benchall_serial.txt /tmp/dataai_benchall_par.txt
if [ "$(go env GOARCH)" = amd64 ]; then
    # A section runs from its "=== ID: title" line to the next one; the
    # header comments before the first section are skipped.
    awk -v ids=" $subset " '/^=== / {id = $2; sub(/:$/, "", id); keep = index(ids, " " id " ") > 0} keep' \
        cmd/benchall/testdata/golden.txt > /tmp/dataai_benchall_golden.txt
    diff /tmp/dataai_benchall_golden.txt /tmp/dataai_benchall_serial.txt
fi
rm -f /tmp/dataai_benchall /tmp/dataai_benchall_serial.txt /tmp/dataai_benchall_par.txt /tmp/dataai_benchall_golden.txt

echo "OK"
