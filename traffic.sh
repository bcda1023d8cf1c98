#!/bin/sh
# `make traffic`: which functions under internal/ does no driver execute?
#
# Builds every binary the repository has (cmd/, the benchmark, the examples)
# with coverage instrumentation over the whole module, runs each the way it
# is run for real, and prints every function under internal/ that stays at
# 0.0 % and is not named in traffic.allow. Unit tests do not count: a
# function only its own test calls is code nobody runs. What a CLI flag
# reaches is reached by passing the flag once below, not by listing it.
# Exits non-zero on an unlisted function (or a stale allow-list entry).
# About 3 minutes.
set -eu
if [ ! -f go.mod ] || [ ! -f traffic.allow ]; then
	echo "traffic.sh: run it from the root of a checkout of the repository" >&2
	exit 1
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin"
export GOCOVERDIR="$tmp/cov"
mkdir -p "$bin" "$GOCOVERDIR" "$tmp/out"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./benchmarks ./examples/...

# run NAME ARGS...: one driver; its own output is noise here, kept only to
# show what failed. refuses NAME ARGS...: a driver that must exit non-zero.
run() {
	if ! "$bin/$@" >"$tmp/out/last.txt" 2>&1; then
		tail -n 20 "$tmp/out/last.txt" >&2
		echo "traffic.sh: $* failed" >&2
		exit 1
	fi
}
refuses() {
	if "$bin/$@" >"$tmp/out/last.txt" 2>&1; then
		echo "traffic.sh: $* succeeded, expected a refusal" >&2
		exit 1
	fi
}

# The benchmark: all four workloads, untraced and traced.
run benchmarks -all -seed 1 -out "$tmp/out"
# The paper's figures and the extra experiments, and the other output modes.
run mvpbt-bench -all
run mvpbt-bench -list
run mvpbt-bench -list-devices
run mvpbt-bench -run fig3 -json
run mvpbt-bench -run fig14d -device zns
refuses mvpbt-bench -run fig3 -device floppy
# The verification arsenal: the five campaigns, one campaign with a size
# and an axis filter, and one cell by its repro line.
run mvpbt-check all
run mvpbt-check diff -heap sias -ops 800
run mvpbt-check scenarios -seed 1 -seeds 1 -devices zns -kinds hot-key-storm
# A faults cell whose torn log write stops recovery's reader short of the
# log's end, so the salvage scan runs; no cell of the default grid does.
run mvpbt-check faults -seed 12 -seeds 1 -heap hot
# The server — served for real on a loopback port with its pprof listener,
# read by the inspector, until SIGTERM — and the inspector's own engine.
"$bin/mvpbt-server" -addr 127.0.0.1:0 -shards 2 -debug-addr 127.0.0.1:0 >"$tmp/out/server.txt" 2>&1 &
srv=$!
# It handles signals from before it prints its address; a SIGTERM sent earlier
# would kill it outright, with no drain and no coverage counters written.
i=0
until grep -q '^mvpbt-server: 2 shards on ' "$tmp/out/server.txt"; do
	i=$((i + 1))
	if [ $i -gt 150 ] || ! kill -0 $srv 2>/dev/null; then
		cat "$tmp/out/server.txt" >&2
		echo "traffic.sh: mvpbt-server did not come up" >&2
		kill $srv 2>/dev/null || true
		exit 1
	fi
	sleep 0.2
done
addr="$(sed -n 's/^mvpbt-server: 2 shards on \([^ ]*\) .*/\1/p' "$tmp/out/server.txt")"
if ! grep -q '^mvpbt-server: pprof on http://127.0.0.1:' "$tmp/out/server.txt"; then
	cat "$tmp/out/server.txt" >&2
	echo "traffic.sh: mvpbt-server -debug-addr opened no pprof listener" >&2
	kill $srv 2>/dev/null || true
	exit 1
fi
if ! "$bin/mvpbt-inspect" -addr "$addr" >"$tmp/out/last.txt" 2>&1; then
	tail -n 20 "$tmp/out/last.txt" >&2
	echo "traffic.sh: mvpbt-inspect -addr $addr failed" >&2
	kill $srv 2>/dev/null || true
	exit 1
fi
kill -TERM $srv
if ! wait $srv; then
	cat "$tmp/out/server.txt" >&2
	echo "traffic.sh: mvpbt-server did not shut down cleanly on SIGTERM" >&2
	exit 1
fi
run mvpbt-inspect
for ex in quickstart htap ycsb tpcc durability; do
	run "$ex"
done

go tool covdata func -i="$GOCOVERDIR" >"$tmp/funcs.txt"
# funcs.txt lines: "mvpbt/internal/x/y.go:12:  Name  0.0%", a method's Name
# as Recv.Method or *Recv.Method. Printed, and listed in traffic.allow, as
# pkgdir.Name.
awk '$NF == "0.0%" && $1 ~ /^mvpbt\/internal\// {
	split($1, a, ":"); f = a[1]; sub(/^mvpbt\/internal\//, "", f); sub(/\/[^\/]*$/, "", f)
	print f "." $2
}' "$tmp/funcs.txt" | sort -u >"$tmp/zero.txt"
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' traffic.allow | awk '{print $1}' | sort -u >"$tmp/allowed.txt"

total="$(awk '/^total/ {print $NF}' "$tmp/funcs.txt")"
unlisted="$(comm -23 "$tmp/zero.txt" "$tmp/allowed.txt")"
stale="$(comm -13 "$tmp/zero.txt" "$tmp/allowed.txt")"
echo "traffic: drivers execute $total of the module's statements; $(wc -l <"$tmp/zero.txt" | tr -d ' ') functions under internal/ at 0.0 %, $(wc -l <"$tmp/allowed.txt" | tr -d ' ') in traffic.allow"
status=0
if [ -n "$unlisted" ]; then
	echo "executed by no driver and not in traffic.allow (delete it, drive it, or list it with a reason):"
	echo "$unlisted" | sed 's/^/  /'
	status=1
fi
if [ -n "$stale" ]; then
	echo "in traffic.allow but executed by a driver, or gone (remove the line):"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
exit $status
