#!/usr/bin/env bash
# mutants.sh — holds the oracles to the hand mutations of derived state they
# must catch. Each scripts/mutants/NAME.patch changes one line; the table
# below names the tests that must fail on it, as a -run pattern (a row of
# FuzzDerivedState's table that carries a test name runs under that name, not
# as a seed). The script copies the working tree (tracked and untracked files
# git does not ignore) to a temporary directory once, and for each mutant
# applies its patch there — never in the checkout — runs its tests and
# reverts the patch. A pattern that starts with a fuzz target adds, if every
# test passes, 10 s of fuzzing that target. It prints the failure line of
# each killed mutant (a lockstep row names its cycle and walk line, a
# derived-state check its clause) and exits non-zero if a mutant survives, or
# does not apply or build.
#
# Usage: scripts/mutants.sh [NAME...]    (default: every mutant in the table)
set -euo pipefail
cd "$(dirname "$0")/.."

# NAME  PACKAGES  -run PATTERN
table='
oninv-ignores-pinsafe ./internal/experiments                   TestHotPathEquivalenceGoldens
removeat-keeps-filter ./internal/core                          FuzzDerivedState
restore-skips-fill    ./internal/core                          FuzzDerivedState
addrun-skips-occ      ./internal/core                          FuzzDerivedState
lines-reads-runs      ./internal/coherence                     TestDirMatchesDenseReference|TestResidencyHoldsFilterToWays
count-one-short       ./internal/core                          FuzzDerivedState
run-skips-athome      ./internal/coherence                     TestDirLoadStateRejectsMalformed
ring-one-short        ./internal/arch,./internal/coherence     TestFabric
recycle-keeps-state   ./internal/coherence                     TestDirMatchesDenseReference|TestResidencyHoldsFilterToWays
free-wrong-class      ./internal/coherence                     TestDirMatchesDenseReference|TestResidencyHoldsFilterToWays
jump-skips-charges    ./internal/core                          TestGateVisits/DOM-COMP/core1_stall
probe-memo-ignores-line ./internal/pipeline                    TestCandidateListsMatchFullWalk/DOM-COMP
rebuild-skips-pinned  ./internal/core                          FuzzDerivedState
setroom-counts-loads  ./internal/pipeline,./internal/core      TestPinRoomCountsLines|TestGateVisits/DOM-EP/core8_sharing/ocean_cp
setroom-fills-the-set ./internal/pipeline,./internal/core      TestPinRoomCountsLines|TestSmallCachesStillCorrect
'

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
# A tracked file deleted from the working tree but not from the index is left
# out, as the checkout has it.
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	tar --null -T - -cf - | tar -xf - -C "$tree"

names=("$@")
if [ ${#names[@]} -eq 0 ]; then
	mapfile -t names < <(awk 'NF { print $1 }' <<<"$table")
fi

bad=0
for name in "${names[@]}"; do
	read -r _ pkgs pattern < <(awk -v n="$name" '$1 == n' <<<"$table") || { echo "$name: not in the table"; bad=1; continue; }
	patch="$PWD/scripts/mutants/$name.patch"
	if ! (cd "$tree" && git apply "$patch"); then
		echo "$name: does not apply"
		bad=1
		continue
	fi
	out=$(cd "$tree" && go test -count=1 -run "$pattern" ${pkgs//,/ } 2>&1) && status=0 || status=$?
	if [ "$status" -eq 0 ] && [[ $pattern == Fuzz* ]]; then
		# The input that kills the mutant is written into the corpus; it must
		# not stay there to kill the next one.
		target=${pattern%%|*}
		corpus="$tree/${pkgs#./}/testdata/fuzz/$target"
		kept=$(ls "$corpus" 2>/dev/null || true)
		out=$(cd "$tree" && go test -run '^$' -fuzz "$target" -fuzztime 10s $pkgs 2>&1) && status=0 || status=$?
		for f in $(ls "$corpus" 2>/dev/null); do grep -qxF "$f" <<<"$kept" || rm "$corpus/$f"; done
	fi
	(cd "$tree" && git apply -R "$patch")
	if grep -q '\[build failed\]\|\[setup failed\]' <<<"$out"; then
		echo "$name: does not build"
		bad=1
	elif [ "$status" -eq 0 ]; then
		echo "$name: SURVIVED $pattern"
		bad=1
	else
		echo "$name: killed by $(grep -o '^--- FAIL: [A-Za-z0-9_]*' <<<"$out" | cut -d' ' -f3 | sort -u | paste -sd, -)"
		grep -v -E ': row [0-9]+ \(|of core-cycles slept' <<<"$out" | grep -m1 -E 'first differ|changed serialized state|_test\.go:[0-9]+: ' |
			sed 's/^[[:space:]]*/    /' | cut -c1-240 || true
	fi
done
exit "$bad"
