#!/bin/sh
# `make mutants`: do the checks catch the bugs they are there for?
#
# Each entry of mutants.list plants one bug — one fixed-string replacement in
# one file — in a copy of the checkout (under `mktemp -d`; set TMPDIR to move
# it) and runs the check that must catch it. Exits non-zero when a mutant
# survives (its check passes), when a mutant does not compile (it would die
# for the wrong reason), or when its pattern does not occur in its file
# exactly once (the list went stale). `sh mutants.sh NAME` (`make mutants
# M=NAME`) runs one entry.
set -eu
if [ ! -f go.mod ] || [ ! -f mutants.list ]; then
	echo "mutants.sh: run it from the root of a checkout of the repository" >&2
	exit 1
fi
only="${1:-}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
root="$(pwd)"

# One line per entry, its five fields separated by the unit separator.
us="$(printf '\037')"
awk -v us="$us" '
function emit() { if (name != "") print name us file us from us to us kill }
/^#/ || /^[[:space:]]*$/ { next }
/^name: / { emit(); name = substr($0, 7); file = from = to = kill = ""; next }
/^file: / { file = substr($0, 7); next }
/^from: / { from = substr($0, 7); next }
/^to:   / { to = substr($0, 7); next }
/^kill: / { kill = substr($0, 7); next }
{ print "mutants.list: cannot read line " NR ": " $0 > "/dev/stderr"; exit 1 }
END { emit() }
' mutants.list >"$tmp/entries"

status=0 ran=0
while IFS="$us" read -r name file from to kill; do
	if [ -n "$only" ] && [ "$name" != "$only" ]; then
		continue
	fi
	ran=$((ran + 1))
	src="$tmp/src"
	rm -rf "$src"
	mkdir -p "$src"
	(cd "$root" && tar --exclude=./.git --exclude=./.bench_build --exclude=./benchmarks/out -cf - .) | tar -xf - -C "$src"
	n="$(FROM="$from" awk 'index($0, ENVIRON["FROM"]) { n++ } END { print n + 0 }' "$src/$file")"
	if [ "$n" -ne 1 ]; then
		echo "mutants: $name: the pattern occurs $n times in $file, not once (stale entry): $from"
		status=1
		continue
	fi
	FROM="$from" TO="$to" awk '{
		i = index($0, ENVIRON["FROM"])
		if (i) $0 = substr($0, 1, i - 1) ENVIRON["TO"] substr($0, i + length(ENVIRON["FROM"]))
		print
	}' "$src/$file" >"$tmp/mutated" && cp "$tmp/mutated" "$src/$file"
	if ! (cd "$src" && go vet "./${file%/*}" >"$tmp/out.txt" 2>&1); then
		tail -n 5 "$tmp/out.txt"
		echo "mutants: $name: the mutant does not compile"
		status=1
		continue
	fi
	if (cd "$src" && sh -c "$kill" >"$tmp/out.txt" 2>&1); then
		echo "mutants: $name: SURVIVED $kill"
		status=1
		continue
	fi
	why="$(grep -m 1 -E 'VIOLATION|_test\.go:[0-9]+:|panic:' "$tmp/out.txt" | sed 's/^[[:space:]]*//' | cut -c 1-200 || true)"
	echo "mutants: $name: killed by $kill"
	echo "    ${why:-$(tail -n 1 "$tmp/out.txt")}"
done <"$tmp/entries"
if [ "$ran" -eq 0 ]; then
	echo "mutants: no entry named '$only' in mutants.list"
	exit 1
fi
exit $status
