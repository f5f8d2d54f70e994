#!/usr/bin/env bash
# Runs interleaved parent/change pairs of one workload, then prints a
# verdict per metric with `perfbench compare`:
#
#   bash perfbench/ab.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS] [SECONDS]
#
# Each checkout is a repository root holding perfbench/. Pair i runs seed
# i on both sides, parent first in odd pairs and change first in even
# ones. Results land in .bench_build/ab/<workload>/{parent,change}/ under
# the current directory.
set -euo pipefail
if (($# < 3)); then
	echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS] [SECONDS]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-20}
out="$(pwd)/.bench_build/ab/$workload"
mkdir -p "$out/parent" "$out/change"
rm -f "$out"/parent/*.json "$out"/change/*.json

# A run whose output checks fail exits non-zero but still writes its
# result; the comparator reads it and reports the workload worse.
run() { # side checkout seed
	(cd "$2" && PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown) bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" \
		--trace 0 --out "$out/$1/s$3.json" >/dev/null) || echo "ab.sh: $1 run with seed $3 failed (exit $?)" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$change" "$i"
	else
		run change "$change" "$i"
		run parent "$parent" "$i"
	fi
done
cd "$change" && .bench_build/perfbench compare -parent "$out/parent" -change "$out/change" -bench BENCHMARK.json
