#!/usr/bin/env bash
# Prints the benchmark's exact columns: for each perfbench workload at
# seed 1, the digest of its outputs and every metric that counts
# something or reads the simulated clock. None of them depends on the
# host, on --seconds or on how fast the code runs, so a change that
# keeps behaviour keeps every line. Wall-clock, allocation and speedup
# columns are left out.
#
#   bash scripts/exact_columns.sh > scripts/testdata/exact_columns.txt
#
# Each workload runs twice through perfbench/run.sh: untraced for the
# end-to-end columns and traced (--trace 1) for the per-layer ones. The
# build goes under $CARGO_TARGET_DIR (default .bench_build), as run.sh
# does. scripts/check.sh diffs the output against the committed file.
set -euo pipefail
cd "$(dirname "$0")/.."

# columns WORKLOAD TRACE NAME... runs one workload and prints its digest
# and the named metrics from the JSON result line, one "workload
# trace=T name value" line each.
columns() {
    local w=$1 t=$2 out
    shift 2
    out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$t")
    echo "$w trace=$t digest $(awk '$1 == "digest" {print $2}' <<<"$out")"
    local json
    json=$(tail -n 1 <<<"$out")
    for name in "$@"; do
        local v
        v=$(grep -o "\"$name\":{\"value\":[^,}]*" <<<"$json" | sed 's/.*"value"://' || true)
        if [ -z "$v" ]; then
            echo "exact_columns: $w trace=$t has no metric $name" >&2
            exit 1
        fi
        echo "$w trace=$t $name $v"
    done
}

serving_e2e="answer_p50_ms answer_p99_ms goodput ttft_p99_ms rag_accuracy ok_rate"

columns routed-faults 0 $serving_e2e
columns routed-faults 1 serving.route_calls_per_req serving.iterations_per_req \
    serving.prefix_hit_ratio serving.prefill_per_output_token serving.rerouted_per_req \
    serving.crashes serving.ckpt_writes serving.ckpt_tokens serving.resumed_from_ckpt \
    serving.migrations serving.wasted_recompute_tokens serving.peak_kv_blocks

columns tenants-traced 0 $serving_e2e
columns tenants-traced 1 serving.route_calls_per_req serving.iterations_per_req \
    serving.prefill_per_output_token serving.peak_kv_blocks serving.admission_reject_ratio \
    serving.admission_delayed serving.preemptions serving.queue_wait_p99_ms \
    obs.spans obs.instants obs.decisions obs.trace_mb

# prep-rag's answer percentiles time the QA loop on the wall clock.
columns prep-rag 0 goodput ttft_p99_ms rag_accuracy ok_rate
columns prep-rag 1 dataprep.kept_ratio semop.llm_calls embed.calls rag.hops_per_question \
    vecdb.search_calls_per_question vecdb.dist_comps_per_search llm.calls_per_question \
    llm.prompt_tokens_per_call
