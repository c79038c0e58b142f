#!/usr/bin/env bash
# Size of the Go code, the measure the simplicity PRs are judged by:
# per package and in total, the lines of non-test and of _test.go files
# that are neither blank nor a // comment. bench/ is its own module and
# is left out. Below the table, the two knob counts ROADMAP and CHANGES
# quote: the fields of engine.Options and the flags dbbench binds.
# Informational: prints, enforces no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -path './bench/*' -not -path './.*' | awk '
{
	dir = $0; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir); if (dir == "") dir = "."
	isTest = ($0 ~ /_test\.go$/)
	code[dir] += 0; test[dir] += 0
	while ((getline line < $0) > 0) {
		if (line ~ /^[ \t]*$/ || line ~ /^[ \t]*\/\//) continue
		if (isTest) test[dir]++; else code[dir]++
	}
	close($0)
}
END {
	printf "%-34s %8s %8s\n", "package", "non-test", "test"
	for (dir in code) {
		printf "%-34s %8d %8d\n", dir, code[dir], test[dir] | "sort"
		totalCode += code[dir]; totalTest += test[dir]
	}
	close("sort")
	printf "%-34s %8d %8d\n", "total (Go outside bench/)", totalCode, totalTest
}'

awk '/^type Options struct/ { inside = 1; next }
	inside && /^}/ { exit }
	inside && /^\t[A-Z][A-Za-z0-9]*[ \t]/ { n++ }
	END { printf "%-34s %8d\n", "engine.Options fields", n }' internal/engine/options.go
printf '%-34s %8d\n' "dbbench flags" "$(grep -cE '^[[:space:]]*fs\.[A-Za-z0-9]+Var\(' cmd/dbbench/main.go)"
