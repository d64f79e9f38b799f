#!/usr/bin/env bash
# Records BENCH_perfbench.json at the repository root: every perfbench
# workload at seeds 1-5 (seed 7777 stays held out for checking performance
# claims), each run as long as BENCHMARK.json's run_seconds, with the
# end-to-end metrics (--trace 0). It fails unless every run exits 0 with
# "correct":true and 0 failed. The file keeps each run's result line and,
# per workload and metric, the median and quartiles (linear interpolation
# between order statistics; iqr = q3 - q1), stamped with the CPU, nproc,
# Go version and the commit perfbench/run.sh reports.
#
#   bash scripts/record-perfbench.sh
set -euo pipefail

cd "$(dirname "$0")/.."
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
out=BENCH_perfbench.json
runs=$(mktemp)
trap 'rm -f "$runs" "$out.tmp"' EXIT

header=
for w in sweep-c5 check-c7-spill bigcurve serve-open-low serve-open-high; do
	for seed in 1 2 3 4 5; do
		res=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)
		header=$(printf '%s\n' "$res" | grep '^# perfbench ')
		line=$(printf '%s\n' "$res" | tail -n 1)
		case $line in
		'{"correct":true,'*'"failed":0,'*) ;;
		*)
			echo "record-perfbench: $w seed $seed: $line" >&2
			exit 1
			;;
		esac
		echo "$w seed $seed: $line" >&2
		printf '%s %s %s\n' "$w" "$seed" "$line" >>"$runs"
	done
done

field() { printf '%s\n' "$header" | tr ' ' '\n' | sed -n "s/^$1=//p"; }
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)

awk -v commit="$(field commit)" -v gover="$(field go)" -v nproc="$(field nproc)" \
	-v gomaxprocs="$(field gomaxprocs)" -v cpu="${cpu:-unknown}" -v seconds="$seconds" \
	-v date="$(date -u +%Y-%m-%d)" '
function quantile(sorted, n, p,    h, lo) {
	h = (n - 1) * p
	lo = int(h)
	if (lo + 1 >= n) return sorted[lo]
	return sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo])
}
{
	w = $1
	if (!(w in nruns)) order[++nw] = w
	k = nruns[w]++
	seeds[w, k] = $2
	line[w, k] = $3
	rest = $3
	while (match(rest, /"[a-z0-9_]+":[{]"value":[^,]+,"unit":"[^"]*"[}]/)) {
		m = substr(rest, RSTART, RLENGTH)
		rest = substr(rest, RSTART + RLENGTH)
		name = m; sub(/^"/, "", name); sub(/".*/, "", name)
		val = m; sub(/.*"value":/, "", val); sub(/,.*/, "", val)
		unit = m; sub(/.*"unit":"/, "", unit); sub(/".*/, "", unit)
		if (!((w, name) in units)) names[w, nm[w]++] = name
		units[w, name] = unit
		vals[w, name, k] = val + 0
	}
}
END {
	printf "{\n  \"recorded\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n", date, commit, gover
	printf "  \"cpu\": \"%s\",\n  \"nproc\": %s,\n  \"gomaxprocs\": %s,\n", cpu, nproc, gomaxprocs
	printf "  \"run_seconds\": %s,\n  \"workloads\": {\n", seconds
	for (i = 1; i <= nw; i++) {
		w = order[i]
		n = nruns[w]
		printf "    \"%s\": {\n      \"metrics\": {\n", w
		for (j = 0; j < nm[w]; j++) {
			name = names[w, j]
			for (k = 0; k < n; k++) {
				v = vals[w, name, k]
				for (s = k; s > 0 && sorted[s - 1] > v; s--) sorted[s] = sorted[s - 1]
				sorted[s] = v
			}
			q1 = quantile(sorted, n, 0.25); q3 = quantile(sorted, n, 0.75)
			printf "        \"%s\": {\"unit\": \"%s\", \"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"iqr\": %.6g}%s\n",
				name, units[w, name], quantile(sorted, n, 0.5), q1, q3, q3 - q1, (j + 1 < nm[w] ? "," : "")
		}
		printf "      },\n      \"runs\": [\n"
		for (k = 0; k < n; k++)
			printf "        {\"seed\": %s, %s%s\n", seeds[w, k], substr(line[w, k], 2), (k + 1 < n ? "," : "")
		printf "      ]\n    }%s\n", (i < nw ? "," : "")
	}
	printf "  }\n}\n"
}' "$runs" >"$out.tmp"
mv "$out.tmp" "$out"
echo "record-perfbench: wrote $out" >&2
