#!/usr/bin/env bash
# fused_ops.sh — fail if the compiler fuses a floating-point multiply and add
# anywhere in the byte-pinned packages or the simulator they build on.
#
# Go lets a compiler fuse x*y + z into one instruction that rounds once, and
# arm64, ppc64le and s390x do (amd64 and 386 do not): a fused figure can
# differ in its last bit, and the goldens pin rendered figures byte for byte.
# An explicit float64(x*y) rounds the product and forbids the fusion. This
# script compiles the packages whose output is pinned, with every package of
# this module they import, for each of the three platforms with -S, and
# prints each FMADD, FMSUB, FNMADD, FNMSUB or VFMA with the function it is in.
#
# Usage: scripts/fused_ops.sh   (~1.5 min; exits 1 on a fused operation)
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/checkpoint ./internal/sectest ./internal/experiments
	./internal/tracefile ./internal/speckey ./internal/simrun)
out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
for arch in arm64 ppc64le s390x; do
	if ! GOARCH=$arch go build -a -gcflags='pinnedloads/...=-S' "${pkgs[@]}" >"$out" 2>&1; then
		grep -v '^\s' "$out" | tail -20
		echo "fused_ops: the $arch build failed" >&2
		exit 1
	fi
	if awk '/ STEXT /{fn=$1} /\t(FMADD|FMSUB|FNMADD|FNMSUB|VFMA)[A-Z]*\t/{print "'"$arch"': " fn ": " $0; n++} END{exit n>0}' "$out"; then
		echo "$arch: no fused multiply-add"
	else
		status=1
	fi
done
exit $status
