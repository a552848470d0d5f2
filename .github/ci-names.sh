#!/bin/sh
# `go test -run` passes silently when its pattern matches nothing, so a
# renamed or deleted test drops out of CI without a trace. This checks
# every -run pattern (and -fuzz target) in the files given (the workflow
# and the Makefile): each |-separated alternative must still name at
# least one test of the package it is run against.
#
#   sh .github/ci-names.sh .github/workflows/ci.yml Makefile
set -eu
GO=${GO:-go}

# "<package> <pattern>" per go-test line with a quoted -run pattern or a
# -fuzz target; the package is the last ./path on the line, and $$ is the
# Makefile's $.
sed -n -e "s/.* test .*-fuzz=\([A-Za-z0-9_]*\).* \(\.\/[^ ]*\).*/\2 \1/p" \
	-e "s/.* test .*-run[= ]'\([^']*\)'.* \(\.\/[^ ]*\).*/\2 \1/p" "$@" |
	sed 's/\$\$/$/g' | grep -v ' ^\$$' | sort -u | {
	bad=0 listed=
	while read -r pkg pattern; do
		if [ "$pkg" != "$listed" ]; then
			names=$($GO test -list . "$pkg" | grep -E '^(Test|Fuzz|Benchmark|Example)')
			listed=$pkg
		fi
		for alt in $(echo "$pattern" | tr '|' ' '); do
			if ! echo "$names" | grep -Eq -- "$alt"; then
				echo "ci-names: $pkg has no test matching '$alt'" >&2
				bad=1
			fi
		done
	done
	exit $bad
}
