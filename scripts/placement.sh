#!/usr/bin/env bash
# Paired benchmark comparison that survives code placement.
#
#   scripts/placement.sh [options] PARENT CHANGE
#
# PARENT and CHANGE are each a git revision of this repository or a
# directory holding a source tree. Each is extracted into a work
# directory, and each gets a padded copy: a //go:noinline pad function
# in internal/token, which the linker places before internal/sim and
# internal/serving, grown until sim.(*Engine).Step sits 32 mod 64 bytes
# from where it sits in the unpadded build of the same tree. Go's amd64
# linker aligns functions to 32 bytes, so every function has two 64-byte
# phases, and a change whose size is an odd multiple of 32 bytes flips
# the phase of everything linked after it. The four builds (parent and
# change at phase 0 and phase 32) are built and run through
# perfbench/run.sh, each with its own CARGO_TARGET_DIR, rotating their
# order from seed to seed. The script prints every run's run_s, then per
# phase the run_s medians, quartiles and the change's win count (lower is
# better), the placement spread (the parent at phase 0 against the parent
# at phase 32), and the per-build median of every end-to-end metric of
# the same runs.
#
# Options:
#   --workload NAME   perfbench workload (default routed-faults)
#   --seeds "S ..."   seeds, one rotation of four runs each (default "1 2 3 4")
#   --seconds N       measured seconds per run (default 30)
#   --work DIR        work directory, left in place afterwards (default: a
#                     new temporary one, removed on exit)
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload=routed-faults
seeds="1 2 3 4"
seconds=30
work=""
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--seeds) seeds="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--work) work="$2"; shift 2 ;;
	-h | --help) sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//'; exit 0 ;;
	-*) echo "placement: unknown option $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [ $# -ne 2 ]; then
	echo "usage: scripts/placement.sh [options] PARENT CHANGE (see --help)" >&2
	exit 2
fi
if [ -z "$work" ]; then
	work="$(mktemp -d "${TMPDIR:-/tmp}/placement.XXXXXX")"
	trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# extract copies a revision or a tree into directory $2.
extract() {
	rm -rf "$2"
	mkdir -p "$2"
	if [ -d "$1" ]; then
		tar -C "$1" --exclude=.git --exclude=.bench_build -cf - . | tar -C "$2" -xf -
	else
		git -C "$repo" archive "$1" | tar -C "$2" -xf -
	fi
}

# build builds tree $1 through perfbench/run.sh into build directory $2
# and sets addr to the address of sim.(*Engine).Step in the binary.
# run.sh runs the binary after building it; --help makes that run print
# its usage and exit. The old binary is removed first, so a failed build
# cannot leave an earlier one in its place, and build is called in the
# script's own shell, not a command substitution, so that its exit on
# failure stops the script.
build() {
	rm -f "$2/perfbench"
	(cd "$1" && CARGO_TARGET_DIR="$2" bash perfbench/run.sh --help >/dev/null 2>&1) || true
	if [ ! -x "$2/perfbench" ]; then
		echo "placement: building $1 failed" >&2
		(cd "$1" && CARGO_TARGET_DIR="$2" bash perfbench/run.sh --help) >&2 || true
		exit 1
	fi
	addr=$(go tool nm -sort address "$2/perfbench" |
		awk '$3 == "dataai/internal/sim.(*Engine).Step" {print $1; found = 1} END {exit !found}') || {
		echo "placement: no sim.(*Engine).Step in $2/perfbench" >&2
		exit 1
	}
}

# pad writes a pad function of $2 statements into tree $1. A package
# variable initialized by the call keeps it linked.
pad() {
	{
		echo "package token"
		echo
		echo "// placementPad only shifts the functions linked after it."
		echo "//"
		echo "//go:noinline"
		echo "func placementPad(x uint64) uint64 {"
		for _ in $(seq "$2"); do
			echo "	x ^= x<<13 | x>>7"
		done
		echo "	return x"
		echo "}"
		echo
		echo "var placementSink = placementPad(1)"
	} > "$1/internal/token/zz_placement_pad.go"
}

sides="parent change"
declare -A src=([parent]="$1" [change]="$2")
for side in $sides; do
	echo "== $side: ${src[$side]}"
	extract "${src[$side]}" "$work/$side-0"
	extract "${src[$side]}" "$work/$side-32"
	build "$work/$side-0" "$work/build-$side-0"
	base=$((16#$addr))
	found=0
	for k in $(seq 1 64); do
		pad "$work/$side-32" "$k"
		build "$work/$side-32" "$work/build-$side-32"
		at=$((16#$addr))
		shift_bytes=$((at - base))
		if [ $((shift_bytes % 64)) -eq 32 ]; then
			echo "   sim.(*Engine).Step at 0x$(printf %x "$base"); padded with $k statements: +$shift_bytes bytes"
			found=1
			break
		fi
	done
	if [ "$found" = 0 ]; then
		echo "placement: no pad size moved sim.(*Engine).Step by 32 mod 64 bytes in $side" >&2
		exit 1
	fi
done

builds="parent-0 change-0 parent-32 change-32"
results="$work/runs.txt"
metrics="$work/metrics.txt"
: > "$results"
: > "$metrics"
printf '%-6s %-10s %s\n' seed build run_s
r=0
for seed in $seeds; do
	order=$(echo $builds | awk -v r="$r" '{for (i = 0; i < NF; i++) printf "%s ", $((i + r) % NF + 1)}')
	r=$((r + 1))
	for b in $order; do
		out="$work/out-$b-$seed.txt"
		(cd "$work/$b" && CARGO_TARGET_DIR="$work/build-$b" bash perfbench/run.sh \
			--workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) > "$out" 2> "$out.err" || {
			echo "placement: $b seed $seed failed; see $out.err" >&2
			exit 1
		}
		# The last line is the JSON report: "name":{"value":v,...} per metric.
		tail -n 1 "$out" | grep -o '"[a-z0-9_]*":{"value":[^,}]*' |
			sed 's/^"\([^"]*\)":{"value":/\1 /; s/^/'"$seed $b"' /' >> "$metrics"
		v=$(awk -v s="$seed" -v b="$b" '$1 == s && $2 == b && $3 == "run_s" {print $4}' "$metrics")
		digest=$(awk '$1 == "digest" {print substr($2, 1, 12)}' "$out")
		if [ -z "$v" ]; then
			echo "placement: no run_s in $out" >&2
			exit 1
		fi
		printf '%-6s %-10s %s  digest %s\n' "$seed" "$b" "$v" "$digest"
		echo "$seed $b $v" >> "$results"
	done
done

# The summary pairs runs by seed. Quartiles interpolate linearly between
# order statistics.
awk '
{ val[$1, $2] = $3; seen[$1] = 1 }
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
# collect fills a with the values of build b in ascending order and
# returns their count.
function collect(b, a,   n, s, i, j, t) {
	n = 0
	for (s in seen) a[++n] = val[s, b]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return n
}
function compare(label, x, y,   a, b, n, s, wins, mx, my) {
	n = collect(x, a); collect(y, b)
	mx = q(a, n, 0.5); my = q(b, n, 0.5)
	for (s in seen) if (val[s, y] < val[s, x]) wins++
	printf "%-18s %s %.4g [%.4g, %.4g] -> %s %.4g [%.4g, %.4g]: %+.2f%%, %s better in %d/%d, median gap %.4g against %s quartile spread %.4g\n",
		label, x, mx, q(a, n, 0.25), q(a, n, 0.75), y, my, q(b, n, 0.25), q(b, n, 0.75),
		100 * (my - mx) / mx, y, wins, n, (my > mx ? my - mx : mx - my), x, q(a, n, 0.75) - q(a, n, 0.25)
}
END {
	print ""
	print "run_s (lower is better)"
	compare("phase 0:", "parent-0", "change-0")
	compare("phase 32:", "parent-32", "change-32")
	compare("placement spread:", "parent-0", "parent-32")
}' "$results"

# Every end-to-end metric of the same runs, as the per-build median over
# the seeds.
awk -v builds="$builds" '
{ v[$3, $2, ++n[$3, $2]] = $4; if (!($3 in named)) { named[$3] = 1; order[++m] = $3 } }
function median(k, b,   c, a, i, j, t) {
	c = n[k, b]
	for (i = 1; i <= c; i++) a[i] = v[k, b, i]
	for (i = 2; i <= c; i++) for (j = i; j > 1 && a[j] < a[j-1]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return c % 2 ? a[(c + 1) / 2] : (a[c / 2] + a[c / 2 + 1]) / 2
}
END {
	nb = split(builds, bs, " ")
	print ""
	printf "%-16s", "median"
	for (i = 1; i <= nb; i++) printf " %12s", bs[i]
	print ""
	for (k = 1; k <= m; k++) {
		printf "%-16s", order[k]
		for (i = 1; i <= nb; i++) printf " %12.6g", median(order[k], bs[i])
		print ""
	}
}' "$metrics"
